package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	// frame that decoded, before the sinks or Replay see its records and
	// before the reply: a collector keeps the frame there so that what it
	// acknowledges survives its process. An error refuses the frame
	// unacknowledged, so the shipper keeps the batch and sends it again.
	// body is the transport's buffer, borrowed for the call. Quiesce waits
	// for frames between the hook and their sinks.
	Journal func(body []byte) error
	// Sinks receive every record in arrival order — e.g. a collector's
	// chain table (streamrecon.Assembler). Sinks must be safe for
	// concurrent use: batches from different connections are ingested
	// concurrently (per-connection order is preserved). A sink that
	// implements probe.BatchSink receives each frame's records in one
	// AppendBatch call instead of one Append per record. A sink that
	// implements Backlogger is asked once per ship frame, before the
	// journal, whether it holds too much: while one says so, ship frames
	// are refused unacknowledged and the shippers send them again. Replay
	// frames are never refused for it.
	Sinks []probe.Sink
	// OnConnect, when set, fires after each successful handshake.
	OnConnect func(Peer)
	// SampleRate, when set, serves the rate operation: the current
	// head-sampling rate shippers should apply. nil rejects rate
	// queries (sampling not enabled on this collector).
	SampleRate func() float64
	// Ring, when set, marks this collector as a cluster member: the
	// current ring is returned in every handshake reply and served to
	// ring polls. nil means standalone — HasRing false, ring queries
	// rejected.
	Ring func() (Ring, bool)
	// Replay, when set, accepts replay batches (segment replays after a
	// ring rebalance). It must deduplicate against records already held
	// and return how many it accepted as new; the server accounts those
	// as Replayed. nil rejects replay frames. recs is the connection's
	// decode slab, borrowed as probe.BatchSink.AppendBatch's argument is:
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

	// gate is read-held by a frame from its Journal call until its records
	// are delivered, and write-held by Quiesce.
	gate sync.RWMutex

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

// Quiesce runs fn while no frame is between its Journal call and the
// delivery of its records: every frame journaled before fn has reached the
// sinks (or Replay), and none journaled after fn started has. Ingest waits
// while fn runs.
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
// end to end. req.Body is the connection's read buffer, lent for the call
// (TCPServer.ServeLent): nothing handle calls may keep it.
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
		hr := HelloReply{Version: ProtocolVersion}
		if s.cfg.Ring != nil {
			if ring, ok := s.cfg.Ring(); ok {
				hr.HasRing = true
				hr.Ring = ring
			}
		}
		respond(transport.Reply{Status: transport.StatusOK, Body: encodeHelloReply(hr)})
	case opShip:
		if s.backlogged() {
			refuse(errBacklogged)
			return
		}
		st := s.conn(conn)
		recs, err := st.dec.Decode(req.Body)
		if err != nil {
			fail(err.Error())
			return
		}
		if err := s.journaled(req.Body, func() { s.ingest(st, recs) }); err != nil {
			refuse(err)
			return
		}
		if !req.Oneway {
			respond(transport.Reply{Status: transport.StatusOK})
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
	case opRate:
		if s.cfg.SampleRate == nil {
			// Every shipping process polls; a collector that steers no
			// rate refuses the poll without counting a bad frame, and the
			// process keeps its own rate.
			if !req.Oneway {
				respond(transport.Reply{Status: transport.StatusUserException, Body: []byte("telemetry: sampling not enabled")})
			}
			return
		}
		respond(transport.Reply{Status: transport.StatusOK, Body: encodeRate(s.cfg.SampleRate())})
	case opRing:
		if s.cfg.Ring == nil {
			fail("telemetry: not a cluster member (no ring)")
			return
		}
		ring, ok := s.cfg.Ring()
		if !ok {
			fail("telemetry: ring unavailable")
			return
		}
		respond(transport.Reply{Status: transport.StatusOK, Body: encodeRing(ring)})
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
		if err := s.journaled(req.Body, func() { accepted = s.cfg.Replay(recs) }); err != nil {
			refuse(err)
			return
		}
		s.replayed.Add(uint64(accepted))
		s.replayBatches.Add(1)
		respond(transport.Reply{Status: transport.StatusOK, Body: encodeCount(uint64(accepted))})
	case opFlush:
		// Per-connection frames are handled in order, so replying here
		// proves every prior ship frame from this peer was ingested.
		respond(transport.Reply{Status: transport.StatusOK})
	default:
		fail("telemetry: unknown operation " + req.Operation)
	}
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

// journaled hands a decoded frame's body to the Journal hook and, once it
// is kept, delivers the frame's records; Quiesce never falls between the
// two. Without a hook it only delivers.
func (s *Server) journaled(body []byte, deliver func()) error {
	if s.cfg.Journal == nil {
		deliver()
		return nil
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	if err := s.cfg.Journal(body); err != nil {
		return fmt.Errorf("telemetry: journal: %w", err)
	}
	deliver()
	return nil
}

// ingest fans one decoded frame out. recs is st's decode slab: every
// callee borrows it for the call and the next frame overwrites it.
func (s *Server) ingest(st *connState, recs []probe.Record) {
	s.batches.Add(1)
	s.records.Add(uint64(len(recs)))
	// Counted whether or not a hello came first; only a handshaken
	// connection's counters are ever reported.
	st.batches.Add(1)
	st.records.Add(uint64(len(recs)))
	for _, sink := range s.cfg.Sinks {
		if bs, ok := sink.(probe.BatchSink); ok {
			bs.AppendBatch(recs)
			continue
		}
		for i := range recs {
			sink.Append(recs[i])
		}
	}
}
