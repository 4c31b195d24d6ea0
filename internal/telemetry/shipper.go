package telemetry

import (
	"errors"
	"fmt"
	"io"
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
	// BufferSize bounds the ring buffer (records); default 8192.
	BufferSize int
	// BatchSize caps records per ship frame; default 256.
	BatchSize int
	// FlushInterval is the background flush period for partially filled
	// batches; default 25ms.
	FlushInterval time.Duration
	// BackoffMin/BackoffMax bound the reconnect backoff (exponential with
	// jitter); defaults 50ms and 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// DrainTimeout bounds how long Close waits to deliver the remaining
	// buffer; default 2s.
	DrainTimeout time.Duration
	// Dial overrides the transport dialer (tests); default transport.DialTCP.
	Dial func(addr string) (transport.Client, error)
	// RateTarget, when set, receives the collector-steered head-sampling
	// rate: the shipper polls the server's rate operation every
	// RatePollInterval and applies each answer. *sampling.Controlled
	// satisfies it; wire the same instance into probe.Config.Sampler and
	// the process sheds chains at whatever rate the collector asks for.
	RateTarget interface{ SetRate(float64) }
	// RatePollInterval is how often the rate is polled; default 1s.
	RatePollInterval time.Duration
	// OnRing, when set, receives the cluster ring: once from the
	// handshake reply (when the collector is a cluster member) and then
	// from periodic ring polls, invoked only when the epoch advances.
	// cluster.RoutedShipper uses it to re-route around rebalances.
	OnRing func(Ring)
	// RingPollInterval is how often the ring is polled when OnRing is
	// set; default 1s.
	RingPollInterval time.Duration
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
		c.FlushInterval = 25 * time.Millisecond
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffMin {
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
	if c.RatePollInterval <= 0 {
		c.RatePollInterval = time.Second
	}
	if c.RingPollInterval <= 0 {
		c.RingPollInterval = time.Second
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
// land in a sharded probe.SpanRing with one CAS and one cell copy, and
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
	ringEpoch atomic.Uint64 // newest ring epoch delivered to OnRing, +1
	lastErr   atomic.Value  // string: most recent handshake/protocol error
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
	// Geometry: one shard — a Vyukov ring is lock-free with any number of
	// producers, and a single shard preserves both the exact BufferSize
	// capacity bound and the global FIFO order the mutex ring gave the
	// shipper (spans of one goroutine must not overtake each other, and
	// a single-goroutine workload must see the full configured bound).
	// Preallocate so the one-time cell-array make-and-zero (BufferSize can
	// be configured into the hundreds of thousands) happens here, not under
	// the first probe on the hot path.
	ring := probe.NewSpanRing(1, cfg.BufferSize)
	ring.Preallocate()
	s := &ShipperSink{
		cfg:      cfg,
		ring:     ring,
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
// enter the ring as a unit — one shard selection, one CAS — and ship
// together.
func (s *ShipperSink) AppendSpan(recs []probe.Record) {
	if len(recs) == 0 {
		return
	}
	s.appended.Add(uint64(len(recs)))
	if s.closed.Load() {
		s.dropped.Add(uint64(len(recs)))
		return
	}
	if d := s.ring.Push(recs[0].Thread, recs); d > 0 {
		s.dropped.Add(uint64(d))
	}
	select {
	case s.wake <- struct{}{}:
	default:
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

// WriteMetrics renders the shipper's counters as exposition series — the
// source form metrics.Registry.RegisterSource consumes. The drop counter
// is the monitoring plane's own loss accounting: records the ring
// rotated out under backpressure (or that Close could not deliver).
func (s *ShipperSink) WriteMetrics(w io.Writer) {
	st := s.Stats()
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

// Close drains the buffer (bounded by DrainTimeout), sends a flush barrier
// so the server has ingested everything delivered, and stops the
// background goroutine. Records that could not be delivered in time are
// counted as dropped. Append after Close drops.
func (s *ShipperSink) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		<-s.done
		return nil
	}
	close(s.stop)
	<-s.done
	return nil
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
	if hr.HasRing {
		s.deliverRing(hr.Ring)
	}
	s.connects.Add(1)
	s.connected.Store(true)
	return client
}

// deliverRing forwards a ring to OnRing when it is newer than the last
// one delivered. Epochs are stored +1 so epoch 0 still registers.
func (s *ShipperSink) deliverRing(r Ring) {
	if s.cfg.OnRing == nil {
		return
	}
	for {
		cur := s.ringEpoch.Load()
		if r.Epoch+1 <= cur {
			return
		}
		if s.ringEpoch.CompareAndSwap(cur, r.Epoch+1) {
			s.cfg.OnRing(r)
			return
		}
	}
}

// pollRing asks the server for the current ring; false on transport
// failure. A protocol rejection (collector left the cluster, or never
// was in one) is not an error — the shipper keeps its current view.
func (s *ShipperSink) pollRing(client transport.Client) bool {
	if client == nil {
		return true
	}
	rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opRing})
	if err != nil {
		return false
	}
	if rep.Status != transport.StatusOK {
		return true
	}
	if r, err := decodeRing(rep.Body); err == nil {
		s.deliverRing(r)
	}
	return true
}

// loop is the background encoder/sender: batch, ship, flush on a timer,
// reconnect with exponential backoff + jitter, drain on stop.
func (s *ShipperSink) loop() {
	defer close(s.done)
	var (
		client  transport.Client
		pending []probe.Record     // taken from the ring, not yet acknowledged
		enc     probe.FrameEncoder // one encode buffer for the loop's lifetime
		backoff = s.cfg.BackoffMin
		refused bool // the collector did not keep the pending batch
	)
	disconnect := func() {
		if client != nil {
			client.Close()
			client = nil
		}
		s.connected.Store(false)
	}
	defer disconnect()

	// ship sends pending plus everything buffered; false on send failure.
	// A non-empty pending is an unacknowledged batch retried across
	// reconnects; truncating (never nilling) it keeps its backing array —
	// and the encoder's buffer — live for the next batch.
	ship := func() bool {
		refused = false
		for {
			if len(pending) == 0 {
				pending = s.take(pending, s.cfg.BatchSize)
			}
			if len(pending) == 0 {
				return true
			}
			payload := enc.Encode(pending)
			// Acknowledged shipment: the batch leaves pending only once
			// the server confirms ingestion. A batch written onto a
			// socket whose far end just died would otherwise be counted
			// shipped and silently lost — the kill-a-collector hole.
			// Retrying an ingested-but-unacknowledged batch is safe: the
			// stores deduplicate by record identity.
			rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opShip, Body: payload})
			if err != nil {
				return false
			}
			if rep.Status == transport.StatusUserException {
				// The collector could not keep the frame: the batch is not
				// acknowledged and goes again at the next flush.
				s.lastErr.Store(fmt.Sprintf("telemetry: ship not kept: %s", rep.Body))
				refused = true
				return true
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

	ticker := time.NewTicker(s.cfg.FlushInterval)
	defer ticker.Stop()
	var rateCh <-chan time.Time
	if s.cfg.RateTarget != nil {
		rt := time.NewTicker(s.cfg.RatePollInterval)
		defer rt.Stop()
		rateCh = rt.C
	}
	var ringCh <-chan time.Time
	if s.cfg.OnRing != nil {
		rt := time.NewTicker(s.cfg.RingPollInterval)
		defer rt.Stop()
		ringCh = rt.C
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
		if !ship() {
			disconnect()
			continue
		}
		// A refused batch waits for the flush tick, not the next append:
		// a collector that pushes back is not asked again at the
		// producers' rate.
		wake := s.wake
		if refused {
			wake = nil
		}
		select {
		case <-s.stop:
			s.drain(client, pending)
			return
		case <-s.detach:
			s.detached <- pending
			return
		case <-wake:
		case <-ticker.C:
		case <-rateCh:
			if !s.pollRate(client) {
				disconnect()
			}
		case <-ringCh:
			if !s.pollRing(client) {
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

// pollRate asks the server for the current head-sampling rate and
// applies it to the configured target. It reports false on transport
// failure (the connection is dead); a protocol-level rejection — the
// server has sampling disabled — just keeps the current rate.
func (s *ShipperSink) pollRate(client transport.Client) bool {
	if client == nil {
		return true
	}
	rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opRate})
	if err != nil {
		return false
	}
	if rep.Status != transport.StatusOK {
		return true
	}
	if rate, err := decodeRate(rep.Body); err == nil {
		s.cfg.RateTarget.SetRate(rate)
	}
	return true
}

// drain makes a final bounded effort to deliver the remaining records and
// confirm ingestion with a flush barrier.
func (s *ShipperSink) drain(client transport.Client, pending []probe.Record) {
	deadline := time.Now().Add(s.cfg.DrainTimeout)
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
		rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opShip, Body: payload})
		if err == nil && rep.Status == transport.StatusUserException {
			// Not kept: try again after a flush interval, within the budget.
			time.Sleep(min(s.cfg.FlushInterval, time.Until(deadline)))
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
	// Oneway; the flush barrier below confirms it.
	_ = client.Post(transport.Request{ObjectKey: ObjectKey, Operation: opStats, Body: encodeFinal(final)})
	// Barrier: the sync reply proves the server handled every prior frame
	// on this connection. A wedged server must not hang Close, so the wait
	// is bounded by what remains of the drain budget.
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return
	}
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		_, _ = client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opFlush})
	}()
	select {
	case <-flushed:
	case <-time.After(remaining):
		client.Close() // unblocks the pending Call
		<-flushed
	}
}
