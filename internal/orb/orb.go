// Package orb is a CORBA-like component runtime — the ORBlite analog the
// monitored applications run on. It provides object adapters, object
// references, request dispatch under selectable threading policies,
// synchronous and oneway invocation, and collocation optimization.
//
// The runtime itself is monitoring-agnostic: probes live in the *generated*
// stubs and skeletons (package idlgen), the FTL rides inside request bodies
// as an extra marshalled parameter, and dispatch threads merely refresh
// their tunnel annotation per observation O2. This mirrors the paper's
// claim that "no CORBA runtime modifications are required" (§2.3).
package orb

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"causeway/internal/gls"
	"causeway/internal/metrics"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/transport"
)

// DispatchFunc is a generated skeleton entry point: it unmarshals the
// request, invokes the servant, and builds the reply. component is the
// component name the object was registered under, used for monitoring
// records. self is the dispatch goroutine's identity, resolved once by the
// ORB before the skeleton runs; instrumented skeletons hand it to the
// skeleton probes so no probe re-parses the runtime stack.
type DispatchFunc func(o *ORB, servant any, component string, req transport.Request, self gls.G) transport.Reply

// registration is one exported object.
type registration struct {
	key       string
	iface     string
	component string
	servant   any
	dispatch  DispatchFunc
}

// Config assembles an ORB instance — one logical process of the
// application.
type Config struct {
	// Process identifies the hosting logical process.
	Process topology.Process
	// Probes is the process's probe set; required (causality capture is
	// always on in an instrumented deployment, and a plain deployment
	// simply never calls the probes from generated code).
	Probes *probe.Probes
	// Instrumented selects the instrumented stub/skeleton wire format (the
	// hidden FTL parameter). Both sides of a deployment must agree, exactly
	// as the paper's back-end compiler flag governs a whole build (§2.3).
	Instrumented bool
	// Policy selects the server threading architecture; default
	// ThreadPerRequest.
	Policy PolicyKind
	// PoolSize is the worker count for ThreadPool (default 4).
	PoolSize int
	// Network hosts in-process endpoints; required for ListenInproc/Dial
	// of inproc refs.
	Network *transport.InprocNetwork
	// DisableCollocation turns off the collocated-call fast path, forcing
	// same-process calls through the full marshal path (the paper's
	// "collocation optimization turned off" accuracy experiment).
	DisableCollocation bool
	// PinDispatch locks each dispatch to its OS thread for the duration of
	// the call, making per-thread CPU readings (cputime.OSThreadMeter)
	// valid on dispatch threads.
	PinDispatch bool
	// CallTimeout bounds every synchronous invocation issued through this
	// ORB's references: a call not answered in time fails with a TIMEOUT
	// system exception instead of hanging the caller forever. Zero means
	// no deadline (the historical behaviour).
	CallTimeout time.Duration
	// Retry enables bounded retry with jittered backoff for invocations
	// that are safe to repeat — references marked Idempotent, and oneway
	// posts. The zero value disables retry.
	Retry RetryPolicy
	// WrapClient, when set, wraps every transport client the ORB dials —
	// the fault-injection and tracing hook. The wrapped client is what
	// gets cached per endpoint.
	WrapClient func(transport.Client) transport.Client
	// Metrics, when set, receives invocation-layer failure counters
	// (timeouts, retries, system exceptions, per-op errors) and is handed
	// to every TCP transport the ORB dials or serves for wire-traffic
	// accounting.
	Metrics *metrics.Registry
}

// RetryPolicy bounds automatic re-invocation at the ORB layer.
type RetryPolicy struct {
	// Attempts is the total number of tries (first call included); values
	// below 2 disable retry.
	Attempts int
	// Backoff is the delay before the second attempt, doubled per further
	// attempt and jittered over [d/2, d]; zero retries immediately.
	Backoff time.Duration
	// SeqStride is how far each retry attempt advances the hidden FTL
	// sequence number, so an earlier attempt that did execute at the
	// server can never share sequence numbers with the retry's probe
	// events. Zero selects the default of 4096.
	SeqStride uint64
}

// enabled reports whether the policy actually retries.
func (p RetryPolicy) enabled() bool { return p.Attempts > 1 }

// stride returns the effective sequence stride.
func (p RetryPolicy) stride() uint64 {
	if p.SeqStride == 0 {
		return 4096
	}
	return p.SeqStride
}

// ORB is one logical process's runtime instance.
type ORB struct {
	cfg    Config
	policy policy

	mu      sync.Mutex
	objects map[string]*registration
	servers []transport.Server
	// endpoints holds every form of every server's address a reference
	// may carry, computed once at listen so the collocation check per
	// call compares strings and builds none.
	endpoints []string
	clients   map[string]transport.Client
	closed    bool
}

// New validates cfg and builds the runtime.
func New(cfg Config) (*ORB, error) {
	if cfg.Probes == nil {
		return nil, errors.New("orb: config requires Probes")
	}
	o := &ORB{
		cfg:     cfg,
		objects: make(map[string]*registration),
		clients: make(map[string]transport.Client),
	}
	switch cfg.Policy {
	case ThreadPerConnection:
		o.policy = newPerConnectionPolicy(64)
	case ThreadPool:
		n := cfg.PoolSize
		if n <= 0 {
			n = 4
		}
		o.policy = newPoolPolicy(n, 256)
	case ThreadPerRequest, 0:
		o.policy = &perRequestPolicy{}
	default:
		return nil, fmt.Errorf("orb: unknown threading policy %v", cfg.Policy)
	}
	return o, nil
}

// Process returns the hosting logical process.
func (o *ORB) Process() topology.Process { return o.cfg.Process }

// Probes returns the process probe set; generated code calls this.
func (o *ORB) Probes() *probe.Probes { return o.cfg.Probes }

// Instrumented reports whether the instrumented wire format is in effect.
func (o *ORB) Instrumented() bool { return o.cfg.Instrumented }

// Register exports a servant under key. iface and component name the
// object for monitoring records; dispatch is the generated skeleton.
func (o *ORB) Register(key, iface, component string, servant any, dispatch DispatchFunc) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return errShutdown
	}
	if _, dup := o.objects[key]; dup {
		return fmt.Errorf("orb: object key %q already registered", key)
	}
	o.objects[key] = &registration{
		key: key, iface: iface, component: component, servant: servant, dispatch: dispatch,
	}
	return nil
}

// lookup finds a registered object.
func (o *ORB) lookup(key string) (*registration, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r, ok := o.objects[key]
	return r, ok
}

// ListenInproc exports the ORB's objects on an in-process endpoint and
// returns the endpoint string ("inproc://name").
func (o *ORB) ListenInproc(name string) (string, error) {
	if o.cfg.Network == nil {
		return "", errors.New("orb: no InprocNetwork configured")
	}
	srv, err := o.cfg.Network.Listen(name)
	if err != nil {
		return "", err
	}
	return o.serveOn(srv)
}

// ListenTCP exports the ORB's objects on a TCP endpoint and returns the
// endpoint string ("tcp://host:port").
func (o *ORB) ListenTCP(addr string) (string, error) {
	srv, err := transport.ListenTCP(addr)
	if err != nil {
		return "", err
	}
	if ns := o.netStats(); ns != nil {
		srv.SetMetrics(ns)
	}
	return o.serveOn(srv)
}

// netStats resolves the wire-traffic counter family, nil when unmetered.
func (o *ORB) netStats() *metrics.NetStats {
	if o.cfg.Metrics == nil {
		return nil
	}
	return &o.cfg.Metrics.Net
}

func (o *ORB) serveOn(srv transport.Server) (string, error) {
	if err := srv.Serve(o.handleRequest); err != nil {
		srv.Close()
		return "", err
	}
	addr := srv.Addr()
	endpoint := addr
	if !strings.Contains(addr, "://") {
		endpoint = "tcp://" + addr
	}
	o.mu.Lock()
	o.servers = append(o.servers, srv)
	o.endpoints = append(o.endpoints, addr)
	if endpoint != addr {
		o.endpoints = append(o.endpoints, endpoint)
	}
	o.mu.Unlock()
	return endpoint, nil
}

// handleRequest schedules the dispatch of one incoming request according
// to the threading policy.
func (o *ORB) handleRequest(conn transport.ConnID, req transport.Request, respond transport.Responder) {
	o.policy.dispatch(conn, func(self gls.G) {
		if o.cfg.PinDispatch {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
		}
		// The policy resolved (and registered) the dispatch goroutine's
		// identity at goroutine birth; the skeleton probes and the
		// post-dispatch clear all reuse the handle — no runtime.Stack parse
		// anywhere on the steady-state dispatch path.
		rep := o.dispatchLocal(req, self)
		// Observation O2: whatever annotation a pooled dispatch thread may
		// still hold from a previous call, the skeleton-start probe
		// refreshes it, and clearing after dispatch guarantees no stale
		// FTL survives the call either way.
		o.cfg.Probes.Tunnel().ClearG(self.ID())
		if !req.Oneway {
			rep.ID = req.ID
			respond(rep)
		}
	})
}

// dispatchLocal resolves the object and runs its generated skeleton.
func (o *ORB) dispatchLocal(req transport.Request, self gls.G) transport.Reply {
	reg, ok := o.lookup(req.ObjectKey)
	if !ok {
		return systemReply(CodeObjectNotExist, fmt.Sprintf("object %q not registered in process %s", req.ObjectKey, o.cfg.Process.ID))
	}
	return reg.dispatch(o, reg.servant, reg.component, req, self)
}

// errShutdown reports use of a shut-down ORB; retry loops stop on it.
var errShutdown = errors.New("orb: shut down")

// client returns (creating if needed) the cached transport client for an
// endpoint of the form "inproc://name" or "tcp://host:port".
func (o *ORB) client(endpoint string) (transport.Client, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil, errShutdown
	}
	if c, ok := o.clients[endpoint]; ok {
		return c, nil
	}
	var (
		c   transport.Client
		err error
	)
	switch {
	case strings.HasPrefix(endpoint, "inproc://"):
		if o.cfg.Network == nil {
			return nil, errors.New("orb: no InprocNetwork configured")
		}
		c, err = o.cfg.Network.Dial(strings.TrimPrefix(endpoint, "inproc://"))
	case strings.HasPrefix(endpoint, "tcp://"):
		c, err = transport.DialTCPMetered(strings.TrimPrefix(endpoint, "tcp://"), o.netStats())
	default:
		return nil, fmt.Errorf("orb: unsupported endpoint %q", endpoint)
	}
	if err != nil {
		return nil, err
	}
	if o.cfg.WrapClient != nil {
		c = o.cfg.WrapClient(c)
	}
	o.clients[endpoint] = c
	return c, nil
}

// invalidateClient drops a broken client from the cache so the next call
// redials, closing it if it is still the cached one. A multiplexed TCP
// client never recovers from a connection-fatal error, so without this a
// single disconnect would poison the endpoint for the ORB's lifetime.
func (o *ORB) invalidateClient(endpoint string, c transport.Client) {
	o.mu.Lock()
	cur, ok := o.clients[endpoint]
	if ok && cur == c {
		delete(o.clients, endpoint)
	}
	o.mu.Unlock()
	if ok && cur == c {
		c.Close()
	}
}

// Shutdown stops serving, waits for in-flight dispatches, and closes all
// client connections. It is idempotent.
func (o *ORB) Shutdown() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	servers := o.servers
	clients := o.clients
	o.servers, o.endpoints = nil, nil
	o.clients = make(map[string]transport.Client)
	o.mu.Unlock()

	for _, s := range servers {
		s.Close()
	}
	o.policy.shutdown()
	for _, c := range clients {
		c.Close()
	}
}
