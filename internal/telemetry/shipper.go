package telemetry

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/transport"
)

// ShipperConfig assembles one process's record shipper.
type ShipperConfig struct {
	// Addr is the collection daemon's TCP address.
	Addr string
	// Process identifies the shipping process in the handshake.
	Process topology.Process
	// DebugAddr, when set, is the process's debug/introspection HTTP
	// address, advertised in the handshake so the collection daemon can
	// scrape the peer's /metrics into a fleet view.
	DebugAddr string
	// BufferSize bounds the ring's span cells, not its records: a cell
	// holds one span of up to 4 records (one for a plain Append), so the
	// ring buffers up to 4x BufferSize records before it drops the
	// oldest. Rounded up to a power of two; default 8192.
	BufferSize int
	// BatchSize caps records per ship frame; default 256.
	BatchSize int
	// FlushInterval is the least time between two ship frames; default
	// 1ms. A full batch ships at once, and so does a record that finds the
	// shipper idle for a FlushInterval; a partial batch otherwise waits
	// until FlushInterval has passed since the previous frame, so records
	// arriving faster than the collector's round trip share frames.
	FlushInterval time.Duration
	// BackoffMin/BackoffMax bound the reconnect backoff (exponential with
	// jitter); defaults 50ms and 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// DrainTimeout bounds how long Close waits to deliver the remaining
	// buffer, a ship call the collector has not answered yet included;
	// default 2s.
	DrainTimeout time.Duration
	// Dial overrides the transport dialer (tests); default transport.DialTCP.
	Dial func(addr string) (transport.Client, error)
	// RateTarget, when set, receives the collector-steered head-sampling
	// rate: from the handshake reply and then from every poll, whenever
	// the collector steers one. *sampling.Controlled satisfies it; wire
	// the same instance into probe.Config.Sampler and the process sheds
	// chains at whatever rate the collector asks for.
	RateTarget interface{ SetRate(float64) }
	// OnRing, when set, receives the cluster ring: from the handshake
	// reply and then from every poll, when the collector is a cluster
	// member, invoked only when the epoch advances. cluster.RoutedShipper
	// uses it to re-route around rebalances.
	OnRing func(Ring)
	// PollInterval is how often a shipper with a RateTarget or an OnRing
	// asks its collector for the ring and the rate again; default 1s. A
	// shipper with neither never polls.
	PollInterval time.Duration
}

func (c *ShipperConfig) applyDefaults() error {
	if c.Addr == "" {
		return errors.New("telemetry: shipper needs an Addr")
	}
	if c.BufferSize <= 0 {
		c.BufferSize = 8192
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.BatchSize > c.BufferSize {
		c.BatchSize = c.BufferSize
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = time.Millisecond
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = c.BackoffMin
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Second
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (transport.Client, error) { return transport.DialTCP(addr) }
	}
	if c.PollInterval <= 0 {
		c.PollInterval = time.Second
	}
	return nil
}

// ShipperStats is a point-in-time snapshot of a shipper's self-observed
// counters.
type ShipperStats struct {
	Appended   uint64 // records offered to Append
	Dropped    uint64 // records lost to the drop-oldest overflow policy (or appended after Close)
	Shipped    uint64 // records acknowledged onto the wire
	Batches    uint64 // ship frames sent
	Bytes      uint64 // payload bytes sent (ship frames)
	Connects   uint64 // successful handshakes, including the first
	Reconnects uint64 // successful handshakes after the first
	Connected  bool   // a session is currently established
	Buffered   int    // records waiting in the ring
	// LastError is the most recent handshake or protocol failure, empty
	// when the last attempt succeeded. A protocol-version mismatch
	// surfaces here verbatim so a mixed-version deployment is
	// diagnosable from the shipping side.
	LastError string
}

// ShipperSink is a probe.Sink that streams records to a telemetry Server
// over TCP. The probe hot path (Append/AppendSpan) is lock-free: records
// land in a probe.SpanRing with one CAS and one cell copy, and
// never perform I/O, block on the sender, or contend on a mutex. Encoding,
// framing, connection management, and reconnect with exponential backoff +
// jitter all happen on one background goroutine.
//
// BufferSize bounds the ring's span cells; a cell holds one span (up to 4
// records when spans are batched, exactly 1 for plain Append), so single-
// record workloads see the historical record bound and span workloads may
// buffer up to 4x before the drop-oldest policy engages.
type ShipperSink struct {
	cfg ShipperConfig

	ring   *probe.SpanRing
	closed atomic.Bool

	wake     chan struct{} // nudges the background loop; capacity 1
	stop     chan struct{}
	done     chan struct{}
	detach   chan struct{}       // closed by Detach: stop WITHOUT draining
	detached chan []probe.Record // loop hands back its unacked batch

	appended  atomic.Uint64
	dropped   atomic.Uint64
	inflight  atomic.Int64 // records taken from the ring, not yet acked/dropped
	shipped   atomic.Uint64
	batches   atomic.Uint64
	bytes     atomic.Uint64
	connects  atomic.Uint64
	connected atomic.Bool
	lastErr   atomic.Value // string: most recent handshake/protocol error

	ringEpoch uint64 // newest ring epoch delivered to OnRing, +1; the loop's own

	// drainBy is when Close's budget ends, written before stop is closed.
	// Once it has passed, cut is set and the live connection closed, and
	// so is every connection made after: a call the collector never
	// answers returns, and Close with it.
	drainBy time.Time
	liveMu  sync.Mutex
	live    transport.Client
	cut     bool
}

var (
	_ probe.Sink     = (*ShipperSink)(nil)
	_ probe.SpanSink = (*ShipperSink)(nil)
)

// NewShipper starts a shipper. It returns immediately even when the server
// is unreachable: records buffer (and eventually rotate out, oldest first)
// until a connection is established.
func NewShipper(cfg ShipperConfig) (*ShipperSink, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &ShipperSink{
		cfg:      cfg,
		ring:     probe.NewSpanRing(cfg.BufferSize),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		detach:   make(chan struct{}),
		detached: make(chan []probe.Record, 1),
	}
	go s.loop()
	return s, nil
}

// Append implements probe.Sink. It is O(1), lock-free, and never blocks: a
// full buffer drops the oldest span to admit the new one.
func (s *ShipperSink) Append(r probe.Record) {
	var tmp [1]probe.Record
	tmp[0] = r
	s.AppendSpan(tmp[:])
}

// AppendSpan implements probe.SpanSink: the records of one invocation span
// enter the ring as a unit — one CAS, one cell copy — and ship together.
//
// It wakes the loop only when its push turned the ring non-empty (the loop
// may be waiting with nothing to send) or filled a batch (the loop may be
// spacing out a partial one). Both are read off the count the push itself
// left: the loop sleeps on the wake only after seeing the ring empty, and
// whichever later push takes the count above zero sees that it did, so no
// record is left waiting for a wake that never comes.
func (s *ShipperSink) AppendSpan(recs []probe.Record) {
	if len(recs) == 0 {
		return
	}
	s.appended.Add(uint64(len(recs)))
	if s.closed.Load() {
		s.dropped.Add(uint64(len(recs)))
		return
	}
	d, n := s.ring.Push(recs)
	if d > 0 {
		s.dropped.Add(uint64(d))
	}
	prev := n - (len(recs) - d)
	if (prev <= 0 && n > 0) || (prev < s.cfg.BatchSize && n >= s.cfg.BatchSize) {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// take moves up to max records (rounded up to whole spans) from the ring
// into dst's backing array (truncating dst first, growing only when a
// batch exceeds its capacity) and returns the result, so steady-state
// batching reuses one scratch slice instead of allocating per batch.
// Taken records are counted in-flight: they stay visible in Buffered until
// settled — acknowledged, rejected, or handed back by Detach — so no
// record is ever invisible to the conservation ledger mid-shipment.
func (s *ShipperSink) take(dst []probe.Record, max int) []probe.Record {
	dst = s.ring.PopInto(dst[:0], max)
	s.inflight.Add(int64(len(dst)))
	return dst
}

// settle retires n in-flight records (shipped, dropped, or detached).
func (s *ShipperSink) settle(n int) {
	if n != 0 {
		s.inflight.Add(int64(-n))
	}
}

func (s *ShipperSink) buffered() int {
	return s.ring.Buffered() + int(s.inflight.Load())
}

// Stats snapshots the counters.
func (s *ShipperSink) Stats() ShipperStats {
	st := ShipperStats{
		Appended:  s.appended.Load(),
		Dropped:   s.dropped.Load(),
		Shipped:   s.shipped.Load(),
		Batches:   s.batches.Load(),
		Bytes:     s.bytes.Load(),
		Connects:  s.connects.Load(),
		Connected: s.connected.Load(),
		Buffered:  s.buffered(),
	}
	if e, ok := s.lastErr.Load().(string); ok {
		st.LastError = e
	}
	if st.Connects > 0 {
		st.Reconnects = st.Connects - 1
	}
	return st
}

// WriteShipperMetrics renders shipper counters as the causeway_shipper_*
// exposition series, for one shipper or a routed shipper's combined view.
// The drop counter is the monitoring plane's own loss accounting: records
// a ring rotated out under backpressure (or that Close could not deliver).
func WriteShipperMetrics(w io.Writer, st ShipperStats) {
	fmt.Fprintf(w, "causeway_shipper_appended_total %d\n", st.Appended)
	fmt.Fprintf(w, "causeway_shipper_dropped_total %d\n", st.Dropped)
	fmt.Fprintf(w, "causeway_shipper_shipped_total %d\n", st.Shipped)
	fmt.Fprintf(w, "causeway_shipper_batches_total %d\n", st.Batches)
	fmt.Fprintf(w, "causeway_shipper_bytes_total %d\n", st.Bytes)
	fmt.Fprintf(w, "causeway_shipper_reconnects_total %d\n", st.Reconnects)
	connected := 0
	if st.Connected {
		connected = 1
	}
	fmt.Fprintf(w, "causeway_shipper_connected %d\n", connected)
	fmt.Fprintf(w, "causeway_shipper_buffered %d\n", st.Buffered)
}

// Close drains the buffer and sends the closing account, both bounded by
// DrainTimeout, and stops the background goroutine. Records that could not
// be delivered in time are counted as dropped. Close returns soon after
// DrainTimeout even when the collector leaves a ship call unanswered: the
// connection is closed under the call once the budget is spent. Append
// after Close drops.
func (s *ShipperSink) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		<-s.done
		return nil
	}
	s.drainBy = time.Now().Add(s.cfg.DrainTimeout)
	close(s.stop)
	cut := time.AfterFunc(s.cfg.DrainTimeout, s.cutLive)
	<-s.done
	cut.Stop()
	return nil
}

// setLive makes c the connection Close cuts once its budget is spent; false
// when that has happened already.
func (s *ShipperSink) setLive(c transport.Client) bool {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.cut {
		return false
	}
	s.live = c
	return true
}

// cutLive closes the live connection and refuses every later one.
func (s *ShipperSink) cutLive() {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	s.cut = true
	if s.live != nil {
		s.live.Close()
	}
}

// connect dials and handshakes once; nil on failure. Protocol-level
// rejections (version mismatch above all) are preserved in LastError so
// the endless reconnect loop stays diagnosable.
func (s *ShipperSink) connect() transport.Client {
	client, err := s.cfg.Dial(s.cfg.Addr)
	if err != nil {
		s.lastErr.Store(err.Error())
		return nil
	}
	if !s.setLive(client) {
		client.Close()
		return nil
	}
	hello := encodeHello(Hello{
		Version:   ProtocolVersion,
		Process:   s.cfg.Process.ID,
		ProcType:  s.cfg.Process.Processor.Type,
		DebugAddr: s.cfg.DebugAddr,
	})
	rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opHello, Body: hello})
	if err != nil {
		s.lastErr.Store(err.Error())
		client.Close()
		return nil
	}
	if rep.Status != transport.StatusOK {
		// The reply body carries the server's rejection — for a version
		// mismatch, the loud and clear error this satellite exists for.
		s.lastErr.Store(fmt.Sprintf("telemetry: handshake rejected: %s", rep.Body))
		client.Close()
		return nil
	}
	// A server of another version is refused here, by the reply's leading
	// version octet.
	hr, err := decodeHelloReply(rep.Body)
	if err != nil {
		s.lastErr.Store(err.Error())
		client.Close()
		return nil
	}
	s.lastErr.Store("")
	s.learn(hr)
	s.connects.Add(1)
	s.connected.Store(true)
	return client
}

// learn takes what a hello or poll reply carries: a ring newer than the
// last one delivered goes to OnRing, a rate to RateTarget. connect and
// poll both run on the loop goroutine, which owns ringEpoch. Epochs are
// stored +1 so epoch 0 still registers.
func (s *ShipperSink) learn(hr HelloReply) {
	if hr.HasRing && s.cfg.OnRing != nil && hr.Ring.Epoch+1 > s.ringEpoch {
		s.ringEpoch = hr.Ring.Epoch + 1
		s.cfg.OnRing(hr.Ring)
	}
	if hr.HasRate && s.cfg.RateTarget != nil {
		s.cfg.RateTarget.SetRate(hr.Rate)
	}
}

// poll asks the collector for its reply again; false on transport
// failure (the connection is dead).
func (s *ShipperSink) poll(client transport.Client) bool {
	rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opPoll})
	if err != nil {
		return false
	}
	if rep.Status == transport.StatusOK {
		if hr, err := decodeHelloReply(rep.Body); err == nil {
			s.learn(hr)
		}
	}
	return true
}

// loop is the background encoder/sender: batch, ship full batches at once
// and partial ones no sooner than FlushInterval after the previous frame,
// reconnect with exponential backoff + jitter, drain on stop.
func (s *ShipperSink) loop() {
	defer close(s.done)
	var (
		client  transport.Client
		pending []probe.Record     // taken from the ring, not yet acknowledged
		enc     probe.FrameEncoder // one encode buffer for the loop's lifetime
		backoff = s.cfg.BackoffMin
		last    time.Time // when the previous ship frame went out
		retryAt time.Time // a refused pending batch goes again no sooner
	)
	disconnect := func() {
		if client != nil {
			client.Close()
			client = nil
		}
		s.connected.Store(false)
	}
	defer disconnect()

	// ship sends every frame that is due and returns how long until the
	// next one is: zero when the ring is empty, so only a wake is awaited.
	// ok is false on send failure. A non-empty pending is an
	// unacknowledged batch retried across reconnects; truncating (never
	// nilling) it keeps its backing array — and the encoder's buffer —
	// live for the next batch.
	ship := func() (next time.Duration, ok bool) {
		for {
			if len(pending) > 0 {
				if wait := time.Until(retryAt); wait > 0 {
					return wait, true
				}
			} else {
				n := s.ring.Buffered()
				if n <= 0 {
					return 0, true
				}
				if n < s.cfg.BatchSize {
					if wait := s.cfg.FlushInterval - time.Since(last); wait > 0 {
						return wait, true
					}
				}
				if pending = s.take(pending, s.cfg.BatchSize); len(pending) == 0 {
					// The oldest cell's producer is between claiming it and
					// filling it; it is about to finish.
					runtime.Gosched()
					continue
				}
			}
			payload := enc.Encode(pending)
			last = time.Now()
			// Acknowledged shipment: the batch leaves pending only once
			// the server confirms ingestion. A batch written onto a
			// socket whose far end just died would otherwise be counted
			// shipped and silently lost — the kill-a-collector hole.
			// Retrying an ingested-but-unacknowledged batch is safe: the
			// stores deduplicate by record identity.
			rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opShip, Body: payload})
			if err != nil {
				return 0, false
			}
			if rep.Status == transport.StatusUserException {
				// The collector could not keep the frame: the batch is not
				// acknowledged and goes again after a backoff, not at the
				// producers' rate.
				s.lastErr.Store(fmt.Sprintf("telemetry: ship not kept: %s", rep.Body))
				retryAt = time.Now().Add(Jitter(s.cfg.BackoffMin))
				continue
			}
			if rep.Status != transport.StatusOK {
				// Protocol rejection: nothing a retry can fix.
				s.lastErr.Store(fmt.Sprintf("telemetry: ship rejected: %s", rep.Body))
				s.dropped.Add(uint64(len(pending)))
				s.settle(len(pending))
				pending = pending[:0]
				continue
			}
			s.shipped.Add(uint64(len(pending)))
			s.batches.Add(1)
			s.bytes.Add(uint64(len(payload)))
			s.settle(len(pending))
			pending = pending[:0]
		}
	}

	// One timer paces partial batches and refused ones; it is armed only
	// while something waits to ship.
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// One ticker polls for the ring and the rate, armed only for a
	// shipper that takes either.
	var pollCh <-chan time.Time
	if s.cfg.OnRing != nil || s.cfg.RateTarget != nil {
		pt := time.NewTicker(s.cfg.PollInterval)
		defer pt.Stop()
		pollCh = pt.C
	}
	for {
		if client == nil {
			if client = s.connect(); client == nil {
				// Jittered exponential backoff, interruptible by stop.
				d := Jitter(backoff)
				backoff *= 2
				if backoff > s.cfg.BackoffMax {
					backoff = s.cfg.BackoffMax
				}
				select {
				case <-s.stop:
					s.drain(client, pending)
					return
				case <-s.detach:
					s.detached <- pending
					return
				case <-time.After(d):
				}
				continue
			}
			backoff = s.cfg.BackoffMin
		}
		next, ok := ship()
		if !ok {
			disconnect()
			continue
		}
		var due <-chan time.Time
		if next > 0 {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(next)
			due = timer.C
		}
		select {
		case <-s.stop:
			s.drain(client, pending)
			return
		case <-s.detach:
			s.detached <- pending
			return
		case <-s.wake:
		case <-due:
		case <-pollCh:
			if !s.poll(client) {
				disconnect()
			}
		}
	}
}

// Detach stops the shipper WITHOUT draining and returns every record it
// still holds — the unacknowledged in-flight batch plus the buffered
// ring, in original order. Records already acknowledged onto the wire
// are not included. This is the rebalance path: when the ring moves a
// hash range away from this shipper's collector, the records en route
// to the old owner must be re-routed, not dropped and not flushed to
// the wrong collector. Detach after Close (or a second Detach) returns
// nil. Returned records are NOT counted as dropped — the caller owns
// them now.
func (s *ShipperSink) Detach() []probe.Record {
	if !s.closed.CompareAndSwap(false, true) {
		<-s.done
		return nil
	}
	close(s.detach)
	pending := <-s.detached
	<-s.done
	// The caller owns the unacked batch now; it is no longer in flight.
	s.settle(len(pending))
	// The loop has exited; the ring is quiescent. Take whatever remains.
	if left := s.ring.Buffered(); left > 0 {
		pending = s.ring.PopInto(pending, left)
	}
	return pending
}

// drain makes a final effort to deliver the remaining records and the
// closing account, every call bounded by what is left of Close's budget.
func (s *ShipperSink) drain(client transport.Client, pending []probe.Record) {
	deadline := s.drainBy
	defer func() {
		if client != nil {
			client.Close()
		}
		s.connected.Store(false)
		// Whatever is still queued did not make it.
		s.dropped.Add(uint64(len(pending)))
		s.settle(len(pending))
		if left := s.ring.Buffered(); left > 0 {
			rest := s.ring.PopInto(nil, left)
			s.dropped.Add(uint64(len(rest)))
		}
	}()
	if client == nil {
		if !time.Now().Before(deadline) {
			return
		}
		if client = s.connect(); client == nil {
			return
		}
	}
	var enc probe.FrameEncoder
	for time.Now().Before(deadline) {
		if len(pending) == 0 {
			pending = s.take(pending, s.cfg.BatchSize)
		}
		if len(pending) == 0 {
			break
		}
		payload := enc.Encode(pending)
		rep, err := client.Call(transport.Request{
			ObjectKey: ObjectKey, Operation: opShip, Body: payload,
			Timeout: max(time.Until(deadline), time.Nanosecond),
		})
		if err == nil && rep.Status == transport.StatusUserException {
			// Not kept: try again after a backoff, within the budget.
			time.Sleep(min(Jitter(s.cfg.BackoffMin), time.Until(deadline)))
			continue
		}
		if err != nil || rep.Status != transport.StatusOK {
			return
		}
		s.shipped.Add(uint64(len(pending)))
		s.batches.Add(1)
		s.bytes.Add(uint64(len(payload)))
		s.settle(len(pending))
		pending = pending[:0]
	}
	// Closing account: everything still queued at this point is about to
	// be dropped by the deferred cleanup, so fold it in now — the frame
	// must carry the numbers as they will stand after Close returns.
	final := ShipperFinal{
		Appended: s.appended.Load(),
		Dropped:  s.dropped.Load() + uint64(len(pending)) + uint64(s.ring.Buffered()),
		Shipped:  s.shipped.Load(),
	}
	// A sync call: the reply proves the server holds the account and every
	// frame before it. A wedged server must not hang Close, so the wait is
	// bounded by what remains of the drain budget, and the account is
	// written even when none remains. Its error changes nothing: the
	// connection closes next either way.
	_, _ = client.Call(transport.Request{
		ObjectKey: ObjectKey, Operation: opStats, Body: encodeFinal(final),
		Timeout: max(time.Until(deadline), time.Nanosecond),
	})
}
