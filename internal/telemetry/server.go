package telemetry

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"causeway/internal/metrics"
	"causeway/internal/probe"
	"causeway/internal/transport"
)

// Peer is one shipping process as identified by its handshake.
type Peer struct {
	Process  string
	ProcType string
	Conn     transport.ConnID
	// DebugAddr is the peer's debug/introspection HTTP address, empty
	// when the peer does not run one.
	DebugAddr string
}

// ServerConfig wires a collection server's outputs.
type ServerConfig struct {
	// Journal, when set, is called with the body of every ship and replay
	// frame that decoded, before the reply and before the sinks or Replay
	// see its records: a collector keeps the frame there so that what it
	// acknowledges survives its process. A ship frame is acknowledged as
	// soon as the hook returns and applied to the sinks after the reply,
	// so a kill between the two loses nothing the journal does not
	// replay. An error refuses the frame unacknowledged, so the shipper
	// keeps the batch and sends it again. body is the transport's buffer,
	// borrowed for the call. Without a hook a ship frame is acknowledged
	// once it decodes. Quiesce waits for frames between the hook (or
	// their decode) and their sinks.
	Journal func(body []byte) error
	// Sinks receive every record in arrival order — e.g. a collector's
	// chain table (streamrecon.Assembler). Sinks must be safe for
	// concurrent use: batches from different connections are ingested
	// concurrently (per-connection order is preserved). A sink that
	// implements probe.FrameSink receives each frame in one AppendFrame
	// call, decoded once and its strings left in the frame's table; any
	// other sink gets each of the frame's records through Append, decoded
	// into Records only when such a sink is configured. A sink that
	// implements Backlogger is asked once per ship frame, before the
	// journal, whether it holds too much: while one says so, ship frames
	// are refused unacknowledged and the shippers send them again. Replay
	// frames are never refused for it.
	Sinks []probe.Sink
	// OnConnect, when set, fires after each successful handshake.
	OnConnect func(Peer)
	// SampleRate, when set, is the head-sampling rate shippers should
	// apply: every hello and poll reply carries its current value. nil
	// leaves the rate out (sampling not steered by this collector).
	SampleRate func() float64
	// Ring, when set, marks this collector as a cluster member: the
	// current ring rides every hello and poll reply. nil, or false from
	// it, means standalone — the replies carry no ring.
	Ring func() (Ring, bool)
	// Replay, when set, accepts replay batches (segment replays after a
	// ring rebalance). It must deduplicate against records already held
	// and return how many it accepted as new; the server accounts those
	// as Replayed. nil rejects replay frames. recs is the connection's
	// decode slab, borrowed as probe.FrameSink.AppendFrame's argument is:
	// the callee must not retain it past the call.
	Replay func(recs []probe.Record) (accepted int)
}

// Backlogger is a sink that can push back: while Backlogged reports true,
// the server refuses ship frames (streamrecon.Assembler at its backlog
// cap).
type Backlogger interface {
	Backlogged() bool
}

// ServerStats snapshots a collection server's counters.
type ServerStats struct {
	Records       uint64 // records ingested via ship frames
	Batches       uint64 // ship frames ingested
	Peers         uint64 // successful handshakes (a reconnecting process counts again)
	BadFrames     uint64 // frames that failed to decode or arrived out of protocol
	Refused       uint64 // frames refused unacknowledged: a sink backlogged, or the journal failed
	Replayed      uint64 // records accepted as new from replay frames
	ReplayBatches uint64 // replay frames ingested
}

// Server accepts shipper connections and fans ingested records into the
// configured sinks. It tolerates any number of concurrent
// shippers and mid-stream disconnects: a vanished connection simply stops
// producing frames, and the records it already delivered stand (the
// analyzer flags the chains it tore as abnormal transitions).
type Server struct {
	cfg ServerConfig
	srv *transport.TCPServer
	// frameSinks are the sinks that take whole frames, recordSinks the
	// rest, each in configuration order.
	frameSinks  []probe.FrameSink
	recordSinks []probe.Sink

	// gate is read-held by a ship or replay frame from its Journal call
	// (or, without a hook, its delivery) until its records are delivered,
	// and write-held by Quiesce.
	gate sync.RWMutex
	// stages time each ship frame's decode, journal write and apply on the
	// local clock, indexed by stageDecode, stageJournal and stageApply.
	stages [len(stageNames)]metrics.Histogram

	mu sync.Mutex
	// conns holds one state per connection, created by its first hello or
	// record frame and found under one lock acquisition per frame. When the
	// transport reports the connection gone the decode state is dropped; a
	// handshaken connection's ledger stays.
	conns map[transport.ConnID]*connState

	records       atomic.Uint64
	batches       atomic.Uint64
	handshook     atomic.Uint64
	badFrames     atomic.Uint64
	refused       atomic.Uint64
	replayed      atomic.Uint64
	replayBatches atomic.Uint64
}

// PeerAccount is one connection's ledger: what the server ingested from
// it, and — once the peer's closing stats frame arrives — what the
// shipper says it emitted, dropped, and shipped. Comparing the two sides
// (Records vs Shipped) bounds in-flight loss; Dropped quantifies ring
// overflow back at the source.
type PeerAccount struct {
	Peer    Peer
	Records uint64 // records the server ingested from this connection
	Batches uint64 // ship frames ingested from this connection
	// Shipper-reported closing counters (valid when Reported).
	Reported bool
	Shipper  ShipperFinal
}

// connState is one connection's decode state and ledger. The transport
// calls handle from the connection's own read loop, so dec needs no lock;
// the counters are atomic because PeerAccounting reads them from elsewhere;
// the rest is guarded by Server.mu.
type connState struct {
	dec *probe.FrameDecoder // nil once the connection is gone

	handshook        bool // a hello arrived: the connection has a ledger
	peer             Peer
	records, batches atomic.Uint64
	reported         bool
	shipper          ShipperFinal
}

// Listen binds addr ("127.0.0.1:0" for an ephemeral port) and starts
// serving shippers.
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	t, err := transport.ListenTCP(addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		srv:   t,
		conns: make(map[transport.ConnID]*connState),
	}
	for _, sink := range cfg.Sinks {
		if fs, ok := sink.(probe.FrameSink); ok {
			s.frameSinks = append(s.frameSinks, fs)
		} else {
			s.recordSinks = append(s.recordSinks, sink)
		}
	}
	t.OnDisconnect(s.forget)
	// handle decodes, journals and delivers a frame before it returns, and
	// every one of those copies what it keeps: it borrows the body.
	if err := t.ServeLent(s.handle); err != nil {
		t.Close()
		return nil, err
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops accepting and tears down live connections. Records already
// ingested remain in the sinks.
func (s *Server) Close() error { return s.srv.Close() }

// Quiesce runs fn while no ship or replay frame is between its Journal
// call and the delivery of its records: every frame acknowledged before
// fn has reached the sinks (or Replay), and none journaled after fn
// started has. Ingest waits while fn runs. It holds with or without a
// Journal hook, so Quiesce(func() {}) is the barrier that makes every
// acknowledged ship frame applied. A peer that stops reading its replies
// holds it up for at most transport.ReplyWriteTimeout: its connection is
// closed then.
func (s *Server) Quiesce(fn func()) {
	s.gate.Lock()
	defer s.gate.Unlock()
	fn()
}

// Stats snapshots the counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Records:       s.records.Load(),
		Batches:       s.batches.Load(),
		Peers:         s.handshook.Load(),
		BadFrames:     s.badFrames.Load(),
		Refused:       s.refused.Load(),
		Replayed:      s.replayed.Load(),
		ReplayBatches: s.replayBatches.Load(),
	}
}

// Peers lists every process that ever completed a handshake, sorted by
// process then connection.
func (s *Server) Peers() []Peer {
	accts := s.PeerAccounting()
	out := make([]Peer, len(accts))
	for i, a := range accts {
		out[i] = a.Peer
	}
	return out
}

// PeerAccounting snapshots every handshaken connection's ledger, sorted
// by process then connection.
func (s *Server) PeerAccounting() []PeerAccount {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PeerAccount, 0, len(s.conns))
	for _, st := range s.conns {
		if st.handshook {
			out = append(out, PeerAccount{
				Peer: st.peer, Records: st.records.Load(), Batches: st.batches.Load(),
				Reported: st.reported, Shipper: st.shipper,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Peer.Process != out[j].Peer.Process {
			return out[i].Peer.Process < out[j].Peer.Process
		}
		return out[i].Peer.Conn < out[j].Peer.Conn
	})
	return out
}

// conn returns conn's state, creating it on the connection's first frame.
func (s *Server) conn(conn transport.ConnID) *connState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connLocked(conn)
}

func (s *Server) connLocked(conn transport.ConnID) *connState {
	st := s.conns[conn]
	if st == nil {
		st = &connState{dec: &probe.FrameDecoder{}}
		s.conns[conn] = st
	}
	return st
}

// forget drops a closed connection's decode state. A handshaken
// connection's ledger stays: it outlives the connection.
func (s *Server) forget(conn transport.ConnID) {
	s.mu.Lock()
	if st := s.conns[conn]; st != nil {
		st.dec = nil
		if !st.handshook {
			delete(s.conns, conn)
		}
	}
	s.mu.Unlock()
}

// handle processes one frame. The transport calls it synchronously from
// the per-connection read loop, so one connection's frames are ingested in
// arrival order — the property that preserves per-process record order
// end to end — and a frame's apply, which follows its reply, still ends
// before the connection's next frame is read: a stats or poll reply
// follows the apply of every frame sent before it. req.Body is the
// connection's read buffer, lent for the call (TCPServer.ServeLent):
// nothing handle calls may keep it.
func (s *Server) handle(conn transport.ConnID, req transport.Request, respond transport.Responder) {
	fail := func(msg string) {
		s.badFrames.Add(1)
		if !req.Oneway {
			respond(transport.Reply{Status: transport.StatusSystemException, Body: []byte(msg)})
		}
	}
	// refuse answers a frame the collector did not keep — a sink is
	// backlogged, or the journal failed: not a protocol fault, so the
	// shipper keeps the batch and sends it again.
	refuse := func(err error) {
		s.refused.Add(1)
		if !req.Oneway {
			respond(transport.Reply{Status: transport.StatusUserException, Body: []byte(err.Error())})
		}
	}
	if req.ObjectKey != ObjectKey {
		fail("telemetry: unknown object key " + req.ObjectKey)
		return
	}
	switch req.Operation {
	case opHello:
		// decodeHello checks the leading version octet before reading
		// anything else, so a mismatched peer gets a version error, not a
		// decode error.
		h, err := decodeHello(req.Body)
		if err != nil {
			fail(err.Error())
			return
		}
		peer := Peer{Process: h.Process, ProcType: h.ProcType, Conn: conn, DebugAddr: h.DebugAddr}
		s.mu.Lock()
		st := s.connLocked(conn)
		// A second hello on one connection starts its ledger over.
		st.handshook, st.peer, st.reported, st.shipper = true, peer, false, ShipperFinal{}
		st.records.Store(0)
		st.batches.Store(0)
		s.mu.Unlock()
		s.handshook.Add(1)
		if s.cfg.OnConnect != nil {
			s.cfg.OnConnect(peer)
		}
		respond(transport.Reply{Status: transport.StatusOK, Body: s.reply()})
	case opShip:
		if s.backlogged() {
			refuse(errBacklogged)
			return
		}
		st := s.conn(conn)
		start := time.Now()
		var f *probe.Frame
		var recs []probe.Record
		var err error
		// Decoded once a door; with no sink at all still decoded, since a
		// frame that does not decode is refused, not journaled.
		if len(s.frameSinks) > 0 || len(s.recordSinks) == 0 {
			f, err = st.dec.DecodeFrame(req.Body)
		}
		if err == nil && len(s.recordSinks) > 0 {
			recs, err = st.dec.Decode(req.Body)
		}
		if err != nil {
			fail(err.Error())
			return
		}
		s.stages[stageDecode].Observe(time.Since(start))
		journal, err := s.journaled(req.Body, func() {
			// The frame is kept: acknowledge it, then apply it. The
			// shipper does not wait for the sinks.
			if !req.Oneway {
				respond(transport.Reply{Status: transport.StatusOK})
			}
			start := time.Now()
			s.ingest(st, f, recs)
			s.stages[stageApply].Observe(time.Since(start))
		})
		if err != nil {
			refuse(err)
			return
		}
		if s.cfg.Journal != nil {
			s.stages[stageJournal].Observe(journal)
		}
	case opStats:
		f, err := decodeFinal(req.Body)
		if err != nil {
			fail(err.Error())
			return
		}
		s.mu.Lock()
		if st := s.conns[conn]; st != nil && st.handshook {
			st.reported, st.shipper = true, f
		}
		s.mu.Unlock()
		if !req.Oneway {
			respond(transport.Reply{Status: transport.StatusOK})
		}
	case opPoll:
		// A collector serving neither ring nor rate answers with both
		// absent: every routed or rate-following shipper polls, and the
		// poll is no fault.
		respond(transport.Reply{Status: transport.StatusOK, Body: s.reply()})
	case opReplay:
		if s.cfg.Replay == nil {
			fail("telemetry: replay not accepted here")
			return
		}
		recs, err := s.conn(conn).dec.Decode(req.Body)
		if err != nil {
			fail(err.Error())
			return
		}
		var accepted int
		if _, err := s.journaled(req.Body, func() { accepted = s.cfg.Replay(recs) }); err != nil {
			refuse(err)
			return
		}
		s.replayed.Add(uint64(accepted))
		s.replayBatches.Add(1)
		respond(transport.Reply{Status: transport.StatusOK, Body: encodeCount(uint64(accepted))})
	default:
		fail("telemetry: unknown operation " + req.Operation)
	}
}

// reply encodes what hello and poll answer: the ring and the rate, each
// when this collector serves one.
func (s *Server) reply() []byte {
	hr := HelloReply{Version: ProtocolVersion}
	if s.cfg.Ring != nil {
		hr.Ring, hr.HasRing = s.cfg.Ring()
	}
	if s.cfg.SampleRate != nil {
		hr.Rate, hr.HasRate = s.cfg.SampleRate(), true
	}
	return encodeHelloReply(hr)
}

// errBacklogged is the refusal a ship frame gets while a sink is backlogged.
var errBacklogged = errors.New("telemetry: collector backlogged")

// backlogged reports whether any sink that can push back is backlogged.
func (s *Server) backlogged() bool {
	for _, sink := range s.cfg.Sinks {
		if b, ok := sink.(Backlogger); ok && b.Backlogged() {
			return true
		}
	}
	return false
}

// journaled hands a decoded frame's body to the Journal hook, when one is
// set, and once it is kept calls deliver, which replies and applies the
// frame; Quiesce never falls between the two, nor inside deliver. It
// returns how long the hook took.
func (s *Server) journaled(body []byte, deliver func()) (time.Duration, error) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	var took time.Duration
	if s.cfg.Journal != nil {
		start := time.Now()
		if err := s.cfg.Journal(body); err != nil {
			return 0, fmt.Errorf("telemetry: journal: %w", err)
		}
		took = time.Since(start)
	}
	deliver()
	return took, nil
}

// The ship-frame stages the server times.
const (
	stageDecode = iota
	stageJournal
	stageApply
)

var stageNames = [...]string{stageDecode: "decode", stageJournal: "journal", stageApply: "apply"}

// WriteStageMetrics renders the ship-frame stage histograms,
// causeway_server_stage_ns{stage="decode"|"journal"|"apply"}: how long
// each ship frame took to decode, to be kept by the Journal hook (nothing
// is observed without one) and to be applied to the sinks after its
// reply, on the local clock.
func (s *Server) WriteStageMetrics(w io.Writer) {
	for i, name := range stageNames {
		metrics.WriteHistogram(w, "causeway_server_stage", `stage="`+name+`"`, &s.stages[i])
	}
}

// ingest fans one decoded frame out: f, to the sinks that take frames, and
// recs, its records, to the rest; each is nil when no sink takes it. Both
// are st's decoder's: every callee borrows them for the call and the next
// frame overwrites them.
func (s *Server) ingest(st *connState, f *probe.Frame, recs []probe.Record) {
	n := uint64(len(recs))
	if f != nil {
		n = uint64(len(f.Records))
	}
	s.batches.Add(1)
	s.records.Add(n)
	// Counted whether or not a hello came first; only a handshaken
	// connection's counters are ever reported.
	st.batches.Add(1)
	st.records.Add(n)
	for _, fs := range s.frameSinks {
		fs.AppendFrame(f)
	}
	for _, sink := range s.recordSinks {
		for i := range recs {
			sink.Append(recs[i])
		}
	}
}
