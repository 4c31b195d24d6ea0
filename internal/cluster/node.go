package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
	"causeway/internal/uuid"
)

// NodeConfig wires one collector. Every value is something cmd/collectd
// takes as a flag today or a callback its report loop supplies; the
// node adds no settings of its own.
type NodeConfig struct {
	// Listen is the telemetry listen address (-listen); "127.0.0.1:0"
	// picks an ephemeral port, read back with Addr.
	Listen string
	// Advertise is this collector's member ID in the ring (-advertise).
	// Default: the bound listen address.
	Advertise string
	// Store receives every record the node accepts: the chain table's
	// evictions and accepted replays. The caller opens it (logdb in memory,
	// tracestore with -store) and closes it after Node.Close. A store that
	// lives in a directory (tracestore) gets the node's frame journal beside
	// it, in Dir()/journal.
	Store Store
	// Table configures the node's chain table, which every ingested record
	// reaches in arrival order: the live monitor's callbacks (-slow,
	// -roots) and assembly (-quiesce, -stale, -tail). The node fills in its
	// Store.
	Table streamrecon.Config
	// OnConnect fires after each shipper handshake.
	OnConnect func(telemetry.Peer)
	// SampleRate serves the head-sampling rate to shippers (-rate,
	// -adaptive) in every hello and poll reply; nil serves none.
	SampleRate func() float64
	// Peers is the ingest tier's member list (-peers) and Epoch the ring
	// epoch to compute from it (-ring-epoch): the ring served from the
	// first handshake. Empty Peers serves no ring until SetRing or a
	// started membership installs one.
	Peers []string
	Epoch uint64
	// NoOwner reports how many records routed shippers dropped for want
	// of a ring owner, as far as this collector can see (collectd: its
	// fleet scrape). It rides the ledger; nil reads as zero.
	NoOwner func() uint64
}

// Node is one collector's data plane, composed once: the telemetry server,
// the chain table behind it, the store the table evicts chains into, the
// frame journal that keeps what the node acknowledged until the store has
// it, the ring it serves, replay acceptance, automated membership once
// started, the conservation ledger over all of those, and the debug-plane
// handlers that expose them. cmd/collectd is flags plus a report loop
// around a Node; the equivalence suites and examples/livemonitor build
// their tiers from the same type, so the kill/rejoin proofs exercise the
// code the daemon ships.
//
// Every ship frame takes one path: server -> journal -> chain table ->
// store. The journal is what lets the node acknowledge a frame before the
// table has applied it, let alone decided its chains: a frame is appended
// to it verbatim before the ack, the table takes the frame after the ack,
// and a journal file goes only once every chain with a record in
// it has left the table and the store has flushed those evictions. A node
// killed with chains open, or with evictions still in the store's
// buffers, replays its journal into the store when it starts again.
type Node struct {
	cfg   NodeConfig
	srv   *telemetry.Server
	table *streamrecon.Assembler
	id    string

	jrn       *journal // nil for a store in memory
	recovered uint64   // records the journal replayed into the store at start

	tickMu sync.Mutex // serializes the journal's rotation and retirement
	gen    uint64     // the table generation the journal last rotated at

	warnMu   sync.Mutex
	warnings []string

	ringMu sync.Mutex
	ring   telemetry.Ring

	mem       atomic.Pointer[Membership]
	closeOnce sync.Once
	closeErr  error
}

// StartNode replays the journal a killed predecessor left beside the
// store, binds the telemetry listener and starts serving shippers.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: node needs a Store")
	}
	n := &Node{cfg: cfg}
	if len(cfg.Peers) > 0 {
		ring, err := Assign(cfg.Epoch, DefaultSlots, Members(cfg.Peers...))
		if err != nil {
			return nil, err
		}
		n.ring = ring
	}
	srvCfg := telemetry.ServerConfig{
		OnConnect:  cfg.OnConnect,
		SampleRate: cfg.SampleRate,
		Ring: func() (telemetry.Ring, bool) {
			r := n.Ring()
			return r, r.Slots > 0
		},
		Replay: n.replay,
	}
	if ds, ok := cfg.Store.(journaledStore); ok {
		dir := filepath.Join(ds.Dir(), "journal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: journal: %w", err)
		}
		recovered, next, warnings, err := recoverJournal(dir, cfg.Store)
		if err != nil {
			return nil, err
		}
		n.recovered, n.warnings = recovered, warnings
		if n.jrn, err = openJournal(dir, next); err != nil {
			return nil, err
		}
		srvCfg.Journal = n.jrn.write
	}
	tableCfg := cfg.Table
	tableCfg.Store = cfg.Store
	n.table = streamrecon.NewMonitor(tableCfg)
	srvCfg.Sinks = []probe.Sink{n.table}
	srv, err := telemetry.Listen(cfg.Listen, srvCfg)
	if err != nil {
		if n.jrn != nil {
			n.jrn.drain(func() error { return nil })
		}
		return nil, err
	}
	n.srv = srv
	n.id = cfg.Advertise
	if n.id == "" {
		n.id = srv.Addr()
	}
	return n, nil
}

// replay accepts a replay frame: chains the range's previous owner already
// assembled and persisted. The table's records of those chains — copies
// that reached this node live — go to the store first, so that the store
// holds all of each chain and InsertNew counts a record that also arrived
// live, or in an earlier replay, once.
func (n *Node) replay(recs []probe.Record) int {
	chains := make(map[uuid.UUID]bool)
	for i := range recs {
		chains[telemetry.RouteUUID(&recs[i])] = true
	}
	n.table.EvictWhere(func(c uuid.UUID) bool { return chains[c] })
	return n.cfg.Store.InsertNew(recs...)
}

// Addr returns the bound telemetry address.
func (n *Node) Addr() string { return n.srv.Addr() }

// ID returns this collector's member ID: Advertise, or the bound address.
func (n *Node) ID() string { return n.id }

// Server returns the telemetry server, for its ingest counters and
// per-peer accounting.
func (n *Node) Server() *telemetry.Server { return n.srv }

// Table returns the chain table, for its callbacks' state, feed and
// ledger. Tick drives it.
func (n *Node) Table() *streamrecon.Assembler { return n.table }

// Tick drives the chain table (streamrecon.Assembler.Tick) and returns how
// many chains it evicted. Each time the table's generation turns (every
// StaleAfter) the journal starts a new file, and the files whose chains
// have all left the table go once the store has flushed. The node owns no
// goroutine: the caller ticks it, as it would the table.
func (n *Node) Tick() int {
	evicted := n.table.Tick()
	if n.jrn == nil {
		return evicted
	}
	n.tickMu.Lock()
	defer n.tickMu.Unlock()
	if gen := n.table.Generation(); gen != n.gen {
		n.gen = gen
		var err error
		n.srv.Quiesce(func() { err = n.jrn.rotate(n.table.Ledger().Appended) })
		if err != nil {
			n.warn(err.Error())
		}
	}
	if err := n.jrn.retire(n.table.HeldFrom, n.flushStore); err != nil {
		n.warn(err.Error())
	}
	return evicted
}

// flushStore pushes the store's buffered writes to the OS.
func (n *Node) flushStore() error { return n.cfg.Store.(journaledStore).Flush() }

func (n *Node) warn(msg string) {
	n.warnMu.Lock()
	n.warnings = append(n.warnings, msg)
	n.warnMu.Unlock()
}

// Warnings returns what the journal reported: a torn tail replayed at
// start (the frame a kill cut short, which was never acknowledged), and
// any failure to rotate or retire a file since.
func (n *Node) Warnings() []string {
	n.warnMu.Lock()
	defer n.warnMu.Unlock()
	return slices.Clone(n.warnings)
}

// Membership returns the automated membership, nil until StartMembership.
func (n *Node) Membership() *Membership { return n.mem.Load() }

// Ring returns the ring this node serves to shippers; Slots is zero
// while it serves none.
func (n *Node) Ring() telemetry.Ring {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	return n.ring
}

// SetRing advances the served ring; connected shippers pick it up
// at their next poll, no reconnect. Only a higher epoch is
// installed: a reborn collector's membership starts from its configured
// epoch before it adopts the tier's, and that stale ring must not
// replace a newer one already served.
func (n *Node) SetRing(r telemetry.Ring) {
	n.ringMu.Lock()
	if r.Epoch > n.ring.Epoch {
		n.ring = r
	}
	n.ringMu.Unlock()
}

// StartMembership starts heartbeating the tier. It is separate from
// StartNode because members probe each other's debug planes: every
// node's handlers must be mounted before any membership starts, and
// until this one does, /memberz and /rebalancez answer 503. The node
// supplies Self, Store and OnRing; the caller supplies the member
// universe, debug addresses and timing.
func (n *Node) StartMembership(cfg MembershipConfig) error {
	cfg.Self = n.id
	cfg.Store = n.cfg.Store
	cfg.OnRing = n.SetRing
	cfg.evict = n.table.EvictWhere
	m, err := NewMembership(cfg)
	if err != nil {
		return err
	}
	n.mem.Store(m)
	return nil
}

// lossCounter is the part of a collector's account only a disk store
// keeps: records removed by retention sweeps and lost to disk failures.
type lossCounter interface {
	Swept() int
	Dropped() int
}

// Ledger computes this collector's conservation account from the
// counters themselves: the chain table's buckets, plus replays. Replayed
// records land in the store synchronously (the accepted count is the
// replayer's acknowledgement), so they appear in both Replayed and
// Persisted; records the journal replayed at start count as Appended and
// Persisted, as RecoverLedger counts a store's segments, so the tier's
// sum(Replayed) == sum(Retired) is untouched by a restart. Retired records
// leave Persisted for the Retired bucket, since the new owner now counts
// them.
func (n *Node) Ledger() Ledger {
	led := FromAssembler(n.table.Ledger())
	led.Appended += n.recovered
	led.Persisted += n.recovered
	led.Replayed = n.srv.Stats().Replayed
	led.Persisted += led.Replayed
	if m := n.Membership(); m != nil {
		led = led.Retire(m.Status().Retired)
	}
	if n.cfg.NoOwner != nil {
		led.NoOwner = n.cfg.NoOwner()
	}
	return led
}

// WriteMetrics renders everything the node counts — ingest and the time
// its ship frames spend in each server stage, the ledger with its balanced
// verdict, the chain table, the journal and membership when present — as
// one registry source.
func (n *Node) WriteMetrics(w io.Writer) {
	st := n.srv.Stats()
	fmt.Fprintf(w, "causeway_server_records_total %d\n", st.Records)
	fmt.Fprintf(w, "causeway_server_batches_total %d\n", st.Batches)
	fmt.Fprintf(w, "causeway_server_peers_total %d\n", st.Peers)
	fmt.Fprintf(w, "causeway_server_bad_frames_total %d\n", st.BadFrames)
	fmt.Fprintf(w, "causeway_server_refused_frames_total %d\n", st.Refused)
	fmt.Fprintf(w, "causeway_server_replay_batches_total %d\n", st.ReplayBatches)
	n.srv.WriteStageMetrics(w)
	n.Ledger().WriteMetrics(w)
	if lc, ok := n.cfg.Store.(lossCounter); ok {
		// The store's side of the account, so inserted == indexed + swept
		// + dropped stays checkable while batches arrive mid-sweep.
		fmt.Fprintf(w, "causeway_store_swept_records_total %d\n", lc.Swept())
		fmt.Fprintf(w, "causeway_store_dropped_records_total %d\n", lc.Dropped())
	}
	n.table.WriteMetrics(w)
	if n.jrn != nil {
		n.jrn.WriteMetrics(w)
	}
	if m := n.Membership(); m != nil {
		m.WriteMetrics(w)
	}
}

// Handlers returns the node's debug-plane endpoints, to mount on any
// debug server (debugserver.Config.Extra):
//
//	/exportz     the store as a record stream — what `causectl -peers` reads
//	/ringz       the served ring as text (404 while none is served)
//	/ledgerz     the conservation ledger as JSON (FetchLedger reads it)
//	/memberz     the membership view as JSON   } 503 until
//	/rebalancez  POST: donate for the current ring } StartMembership
//	/feedz       the chain table's eviction feed
func (n *Node) Handlers() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"/exportz":    exportHandler(n.cfg.Store),
		"/ringz":      n.serveRing,
		"/ledgerz":    n.serveLedger,
		"/memberz":    n.whenMember((*Membership).ServeMemberz),
		"/rebalancez": n.whenMember((*Membership).ServeRebalance),
		"/feedz":      n.table.ServeFeed,
	}
}

// exportHandler streams store as the record stream logdb.WriteRecords and
// `causectl export` emit, which `causectl -peers` folds into one fleet
// store with MergeStream.
func exportHandler(store Store) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		// Once the stream has begun the headers are gone; on an error
		// the torn tail is the client's signal.
		_ = logdb.WriteRecords(store, w)
	}
}

// serveRing writes the String() summary plus one line per member,
// `causectl cluster` input.
func (n *Node) serveRing(w http.ResponseWriter, r *http.Request) {
	ring := n.Ring()
	if ring.Slots == 0 {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ring %s\n", ring)
	for _, m := range ring.Members {
		marker := ""
		if m.ID == n.id {
			marker = " (self)"
		}
		fmt.Fprintf(w, "member %s addr=%s slots=[%d,%d)%s\n", m.ID, m.Addr, m.Start, m.End, marker)
	}
}

func (n *Node) serveLedger(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(n.Ledger())
}

func (n *Node) whenMember(serve func(*Membership, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if m := n.Membership(); m != nil {
			serve(m, w, r)
			return
		}
		http.Error(w, "membership not started", http.StatusServiceUnavailable)
	}
}

// Close stops the membership (first, so no proposal races a vanishing
// listener) and the telemetry server, then drains: every chain the table
// still holds goes to the store, the store flushes, and the journal is
// deleted. The store stays open; the caller closes it.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		if m := n.Membership(); m != nil {
			m.Close()
		}
		err := n.srv.Close()
		n.table.FlushOpen()
		if n.jrn != nil {
			n.tickMu.Lock() // no Tick retires files beside the drain
			err = errors.Join(err, n.jrn.drain(n.flushStore))
			n.tickMu.Unlock()
		}
		n.closeErr = err
	})
	return n.closeErr
}
