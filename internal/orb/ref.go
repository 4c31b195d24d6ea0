package orb

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/metrics"
	"causeway/internal/probe"
	"causeway/internal/telemetry"
	"causeway/internal/transport"
)

// Ref is a client-side object reference (the IOR analog): which endpoint
// hosts the object, its key, and its interface. Generated stubs wrap a Ref.
type Ref struct {
	orb       *ORB
	Endpoint  string
	Key       string
	Interface string
	Component string
	// Idempotent marks every operation on this reference safe to repeat,
	// opting it into the ORB's RetryPolicy. A timed-out attempt may have
	// executed at the server, so only genuinely repeat-safe objects should
	// set this.
	Idempotent bool
}

// RefTo builds a reference resolvable through this ORB's transports.
func (o *ORB) RefTo(endpoint, key, iface, component string) *Ref {
	return &Ref{orb: o, Endpoint: endpoint, Key: key, Interface: iface, Component: component}
}

// ORB returns the client-side ORB owning the reference.
func (r *Ref) ORB() *ORB { return r.orb }

// OpID builds the monitoring identity for an operation on this object.
func (r *Ref) OpID(operation string) probe.OpID {
	return probe.OpID{
		Component: r.Component,
		Interface: r.Interface,
		Operation: operation,
		Object:    r.Key,
	}
}

// metrics resolves the ORB's registry, nil when unmetered.
func (r *Ref) metrics() *metrics.Registry { return r.orb.cfg.Metrics }

// countFailure records an invocation that ultimately failed with a
// system exception, both in the ORB family and per operation.
func (r *Ref) countFailure(operation string) {
	if m := r.metrics(); m != nil {
		m.ORB.SystemExceptions.Add(1)
		m.Op(metrics.OpKey{Interface: r.Interface, Operation: operation}).Errors.Add(1)
	}
}

// LocalServant resolves the collocated fast path: if the reference's target
// lives in this very ORB instance (same logical process) and collocation
// optimization is enabled, it returns the servant for direct invocation —
// "the stub … locate[s] the object interface pointer directly and therefore
// bypass[es] the skeleton" (§2.1). Generated stubs type-assert the result.
func (r *Ref) LocalServant() (any, bool) {
	if r.orb == nil || r.orb.cfg.DisableCollocation {
		return nil, false
	}
	reg, ok := r.orb.lookup(r.Key)
	if !ok {
		return nil, false
	}
	// Same key registered here: only treat as collocated when the endpoint
	// actually designates this process (one of our servers) — two logical
	// processes in one binary may reuse keys.
	if !r.orb.servesEndpoint(r.Endpoint) {
		return nil, false
	}
	return reg.servant, true
}

// servesEndpoint reports whether this ORB instance listens on endpoint.
func (o *ORB) servesEndpoint(endpoint string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Contains(o.endpoints, endpoint)
}

// Invoke performs a synchronous request carrying a pre-marshalled body and
// returns the raw reply. Generated stubs marshal parameters (and, when
// instrumented, the hidden FTL) into body, then decode the reply body.
//
// A call unanswered within the ORB's CallTimeout fails with a TIMEOUT
// system exception. References marked Idempotent additionally retry under
// the ORB's RetryPolicy: each retry waits a jittered, doubling backoff,
// redials if the connection broke, and offsets the hidden FTL sequence
// number by the policy stride so a retried invocation that executed twice
// still emits probe events with unique sequence numbers.
func (r *Ref) Invoke(operation string, body []byte) (transport.Reply, error) {
	attempts := 1
	policy := r.orb.cfg.Retry
	if r.Idempotent && policy.enabled() {
		attempts = policy.Attempts
	}
	backoff := policy.Backoff
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		attemptBody := body
		if attempt > 0 {
			if m := r.metrics(); m != nil {
				m.ORB.Retries.Add(1)
			}
			if backoff > 0 {
				time.Sleep(telemetry.Jitter(backoff))
				backoff *= 2
			}
			if r.orb.cfg.Instrumented {
				attemptBody = retrySeqBody(body, attempt, policy.stride())
			}
		}
		c, err := r.orb.client(r.Endpoint)
		if err != nil {
			if errors.Is(err, errShutdown) {
				r.countFailure(operation)
				return transport.Reply{}, &SystemException{Code: CodeShutdown, Detail: err.Error()}
			}
			lastErr = &SystemException{Code: CodeTransport, Detail: err.Error()}
			continue
		}
		rep, err := c.Call(transport.Request{
			ObjectKey: r.Key,
			Operation: operation,
			Body:      attemptBody,
			Timeout:   r.orb.cfg.CallTimeout,
		})
		if err == nil {
			return rep, nil
		}
		if errors.Is(err, transport.ErrDeadlineExceeded) {
			// The connection itself is healthy — the peer is just slow or
			// hung — so keep the client cached for other callers.
			if m := r.metrics(); m != nil {
				m.ORB.Timeouts.Add(1)
			}
			lastErr = &SystemException{Code: CodeTimeout, Detail: err.Error()}
			continue
		}
		// Any other Call failure means the connection is unusable; drop it
		// from the cache so the next attempt (or the next caller) redials.
		lastErr = &SystemException{Code: CodeTransport, Detail: err.Error()}
		r.orb.invalidateClient(r.Endpoint, c)
	}
	r.countFailure(operation)
	return transport.Reply{}, lastErr
}

// retrySeqBody returns a copy of body whose hidden trailing FTL has its
// sequence number advanced by attempt*stride. The copy matters: later
// attempts re-derive from the original body, and Encode on the shared
// backing array would clobber it.
func retrySeqBody(body []byte, attempt int, stride uint64) []byte {
	prefix, f, err := TakeFTL(body)
	if err != nil {
		return body
	}
	f.Seq += uint64(attempt) * stride
	out := make([]byte, len(prefix), len(prefix)+ftl.WireSize)
	copy(out, prefix)
	return f.Encode(out)
}

// Post performs a oneway (asynchronous) request. Oneway posts are
// fire-and-forget and therefore always repeat-safe: when the ORB has a
// RetryPolicy, a failed post is retried with the same jittered backoff and
// redial behaviour as idempotent calls.
func (r *Ref) Post(operation string, body []byte) error {
	attempts := 1
	policy := r.orb.cfg.Retry
	if policy.enabled() {
		attempts = policy.Attempts
	}
	backoff := policy.Backoff
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		attemptBody := body
		if attempt > 0 {
			if m := r.metrics(); m != nil {
				m.ORB.Retries.Add(1)
			}
			if backoff > 0 {
				time.Sleep(telemetry.Jitter(backoff))
				backoff *= 2
			}
			if r.orb.cfg.Instrumented {
				attemptBody = retrySeqBody(body, attempt, policy.stride())
			}
		}
		c, err := r.orb.client(r.Endpoint)
		if err != nil {
			if errors.Is(err, errShutdown) {
				r.countFailure(operation)
				return &SystemException{Code: CodeShutdown, Detail: err.Error()}
			}
			lastErr = &SystemException{Code: CodeTransport, Detail: err.Error()}
			continue
		}
		if err := c.Post(transport.Request{
			ObjectKey: r.Key,
			Operation: operation,
			Oneway:    true,
			Body:      attemptBody,
		}); err != nil {
			lastErr = &SystemException{Code: CodeTransport, Detail: err.Error()}
			r.orb.invalidateClient(r.Endpoint, c)
			continue
		}
		return nil
	}
	r.countFailure(operation)
	return lastErr
}

// AppendFTL marshals the hidden in-out FTL parameter after the declared
// parameters (Figure 3); instrumented generated stubs call it.
func AppendFTL(body []byte, f ftl.FTL) []byte { return f.Encode(body) }

// TakeFTL strips the trailing FTL from an instrumented body, returning the
// declared-parameter prefix and the FTL. Instrumented skeletons and stubs
// (for replies) call it.
func TakeFTL(body []byte) ([]byte, ftl.FTL, error) {
	if len(body) < ftl.WireSize {
		return body, ftl.FTL{}, fmt.Errorf("orb: body too short for hidden FTL parameter (%d bytes)", len(body))
	}
	cut := len(body) - ftl.WireSize
	f, _, err := ftl.Decode(body[cut:])
	if err != nil {
		return body, ftl.FTL{}, err
	}
	return body[:cut], f, nil
}
