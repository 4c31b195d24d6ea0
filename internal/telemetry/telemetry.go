// Package telemetry ships probe records off-box while the application
// runs — the subsystem (S28) that lifts the paper's restriction that
// analysis happens only "when the application ceases to exist or reaches a
// quiescent state" (§3) beyond a single process: Fig.5-scale multi-process
// deployments stream their scattered logs to one collection daemon
// (cmd/collectd), whose chain table both monitors them live (slow-call /
// anomaly callbacks) and assembles them into the relational store the
// offline analyzer reads.
//
// # Transport and frame format
//
// Shipping rides the repo's own framed TCP transport (internal/transport):
// every message is a length-prefixed transport frame whose Request carries
// ObjectKey "causeway.telemetry" and one of five operations. The two that
// carry records carry one probe frame (internal/probe/frame.go — the same
// frame a .ftlog file and /exportz are made of); the control messages are
// fixed layouts in the same cdr conventions (little-endian integers,
// uint32-length-prefixed strings). Nothing on the socket is self-describing:
// a decoder reads exactly the fields below, bounds every count by the bytes
// that remain, and refuses trailing bytes.
//
//	hello  (sync)   octet version, string process, string procType,
//	                string debugAddr — handshake; the server learns the
//	                peer's identity from internal/topology terms and
//	                replies StatusOK with the collector's reply:
//	                  octet version, octet hasRing, [ring],
//	                  octet hasRate, [float64 rate]
//	                  ring = uint64 epoch, int32 slots, uint32 M,
//	                    M x (string id, string addr, int32 start, int32 end)
//	                which carries the cluster ring when the collector
//	                belongs to one and the head-sampling rate when it
//	                steers one. The leading version octet is checked
//	                before anything else is read, in both directions, so a
//	                mismatched peer fails loudly with a version error
//	                instead of a confusing decode failure — or worse,
//	                silently misrouting records around a ring it cannot
//	                parse.
//	ship   (sync)   frame — one batch of records, in emission order. The
//	                empty StatusOK reply acknowledges that the collector
//	                has kept the frame (ServerConfig.Journal: a collector
//	                over a disk store has appended it to its journal) and
//	                handed its records to the sinks; the shipper holds the
//	                batch until it arrives. A user-exception reply means
//	                the frame was not kept: the shipper sends it again at
//	                its next flush.
//	replay (sync)   frame — a segment replay after a ring rebalance; the
//	                reply is uint64, the records the receiver accepted as
//	                new.
//	poll   (sync)   empty — the reply is hello's, read again: a shipper
//	                that routes by the ring or follows the rate polls once
//	                a PollInterval. A collector serving neither answers
//	                StatusOK with both absent.
//	stats  (sync)   uint64 appended, uint64 dropped, uint64 shipped — the
//	                shipper's closing account of itself, sent once during
//	                drain so the collection side can report per-peer loss.
//	                The empty reply proves the server holds it, and, since
//	                the transport reads and dispatches one connection's
//	                frames in order, every frame sent before it.
//
// A frame is a string table followed by fixed-layout records:
//
//	uint32 T, T x string         the frame's distinct Process, ProcType and
//	                             Op.{Component,Interface,Operation,Object}
//	uint32 N, N x record         kind, flags, event octets; six uint32
//	                             table indexes; thread; Semantics inline;
//	                             then the event block (chain, seq, wall and
//	                             CPU windows) and the link block (parent,
//	                             parent seq, child), each present only when
//	                             its flags bit says so
//
// The server resolves each table entry once per frame through a bounded
// per-connection intern map, so in steady state decoding a frame allocates
// the record slab and nothing else, and all the records a process ships
// share one copy of each identity string. Semantics never enters the table or the
// intern map: it is unique per record and would only crowd out the
// vocabulary that repeats. Decoded strings are always copies — a record
// never aliases the transport's frame buffer.
//
// Because the server ingests each connection's frames in arrival order and
// every record carries its chain's own sequence number, per-chain causal
// order survives shipping; cross-connection interleaving is harmless — the
// online monitor orders by (chain, seq) exactly as the offline analyzer
// does. Sinks that implement probe.FrameSink receive each frame in one
// call, decoded once with its strings left in the frame's table; the
// others receive its records one Append at a time, in the same order.
//
// # Backpressure policy
//
// A probe must never block on monitoring I/O (§2.1's interference
// argument, restated for the network). ShipperSink.Append is O(1): it
// writes into a bounded ring buffer and returns. When the buffer is full —
// stalled server, dead link, reconnect storm — the OLDEST buffered span
// is dropped to admit the new one, and the drop is counted. Lost records
// degrade the DSCG (the analyzer flags broken chains as abnormal
// transitions, Figure 4) but never the application. Stats() exposes
// appended/dropped/shipped/reconnect counters so the monitoring layer can
// observe itself.
package telemetry

import (
	"fmt"

	"causeway/internal/cdr"
)

// ObjectKey routes telemetry frames within the shared transport namespace.
const ObjectKey = "causeway.telemetry"

// Operations of the shipping protocol.
const (
	opHello = "hello"
	// opShip (sync) carries one record frame (probe/frame.go); the empty StatusOK
	// reply acknowledges that the frame is kept (journaled, where the
	// collector journals) and ingested. A shipper holds each member's
	// part until the ack arrives, so a collector dying mid-frame loses
	// nothing — the part is sent again on reconnect, or goes back
	// through the split when a new ring drops the member — and
	// receivers deduplicate by record identity.
	opShip = "ship"
	// opPoll (sync, empty request) asks for the handshake reply again: the
	// current ring, so a rebalance (collector joined or died) re-routes
	// records without a reconnect, and the current head-sampling rate, the
	// control loop that closes collectd's load-shedding feedback.
	opPoll  = "poll"
	opStats = "stats"
	// opReplay (sync) carries a record frame like ship, but marks
	// the batch as a segment replay after a ring rebalance: the receiver
	// deduplicates against records it already holds and accounts accepted
	// records as Replayed, not freshly shipped — the bucket that keeps
	// the tier-wide conservation ledger from double-counting a moved
	// chain. The reply body is one uint64: how many records the
	// receiver accepted as new.
	opReplay = "replay"
)

// ProtocolVersion is bumped on incompatible frame-format changes; the
// server rejects handshakes from other versions. Version 2 added the
// leading version byte on the handshake (both directions), the
// HelloReply payload (cluster ring discovery), and the ring and replay
// operations. Version 3 moved ship and replay frames from gob to the cdr
// record frame; version 4 moved the control messages to fixed cdr layouts
// too (the frame body did not change). Version 5 put the rate in the
// hello reply, replaced the ring and rate operations with poll, made stats
// synchronous and dropped the flush barrier. There is no negotiation —
// peers of different versions refuse each other at hello.
const ProtocolVersion = 5

// Hello is the handshake payload: who is shipping. DebugAddr (optional)
// advertises the peer's debug/introspection HTTP address so the collection
// daemon can scrape its /metrics. Version travels as the leading octet — the
// one byte a peer of any vintage can check before reading the rest.
type Hello struct {
	Version   int
	Process   string // topology.Process.ID
	ProcType  string // topology.Processor.Type
	DebugAddr string // optional debugserver address ("host:port")
}

func encodeHello(h Hello) []byte {
	var e cdr.Encoder
	e.PutOctet(byte(h.Version))
	e.PutString(h.Process)
	e.PutString(h.ProcType)
	e.PutString(h.DebugAddr)
	return e.Bytes()
}

// checkVersion validates the leading protocol version octet and returns a
// decoder over the remaining payload. The error spells out both versions so
// a mismatched deployment is diagnosable from either side's log.
func checkVersion(b []byte, what string) (*cdr.Decoder, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("telemetry: %s: empty body (peer predates protocol versioning; want version %d)", what, ProtocolVersion)
	}
	if b[0] != ProtocolVersion {
		return nil, fmt.Errorf("telemetry: %s: protocol version %d, want %d (mismatched causeway versions between shipper and collector)", what, b[0], ProtocolVersion)
	}
	return cdr.NewDecoder(b[1:]), nil
}

// finish closes a control-message decode: truncation anywhere in the
// message and bytes left over are both the message's error.
func finish(d *cdr.Decoder, what string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("telemetry: decode %s: %w", what, err)
	}
	return nil
}

func decodeHello(b []byte) (Hello, error) {
	d, err := checkVersion(b, "hello")
	if err != nil {
		return Hello{}, err
	}
	h := Hello{Version: ProtocolVersion, Process: d.String(), ProcType: d.String(), DebugAddr: d.String()}
	return h, finish(d, "hello")
}

// HelloReply is the collector's answer to hello and to poll. HasRing
// reports whether this collector is part of a cluster; when set, Ring is
// the current chain-hash ownership map the shipper should route by.
// HasRate reports whether it steers the head-sampling rate; when set, Rate
// is the rate the shipper's process should apply.
type HelloReply struct {
	Version int
	HasRing bool
	Ring    Ring
	HasRate bool
	Rate    float64
}

func encodeHelloReply(hr HelloReply) []byte {
	var e cdr.Encoder
	e.PutOctet(byte(hr.Version))
	e.PutBool(hr.HasRing)
	if hr.HasRing {
		putRing(&e, hr.Ring)
	}
	e.PutBool(hr.HasRate)
	if hr.HasRate {
		e.PutFloat64(hr.Rate)
	}
	return e.Bytes()
}

func decodeHelloReply(b []byte) (HelloReply, error) {
	d, err := checkVersion(b, "hello reply")
	if err != nil {
		return HelloReply{}, err
	}
	hr := HelloReply{Version: ProtocolVersion, HasRing: d.Bool()}
	if hr.HasRing {
		hr.Ring = getRing(d)
	}
	if hr.HasRate = d.Bool(); hr.HasRate {
		hr.Rate = d.Float64()
	}
	return hr, finish(d, "hello reply")
}

func putRing(e *cdr.Encoder, r Ring) {
	e.PutUint64(r.Epoch)
	e.PutInt32(int32(r.Slots))
	e.PutUint32(uint32(len(r.Members)))
	for _, m := range r.Members {
		e.PutString(m.ID)
		e.PutString(m.Addr)
		e.PutInt32(int32(m.Start))
		e.PutInt32(int32(m.End))
	}
}

// getRing sizes nothing by the member count: SeqLen refuses one larger than
// the bytes that remain, and the slice grows a member at a time only while
// the bytes for it were there, so a forged count buys no allocation.
func getRing(d *cdr.Decoder) Ring {
	r := Ring{Epoch: d.Uint64(), Slots: int(d.Int32())}
	for n := d.SeqLen(); n > 0 && d.Err() == nil; n-- {
		r.Members = append(r.Members, RingMember{ID: d.String(), Addr: d.String(), Start: int(d.Int32()), End: int(d.Int32())})
	}
	return r
}

func encodeCount(n uint64) []byte {
	var e cdr.Encoder
	e.PutUint64(n)
	return e.Bytes()
}

func decodeCount(b []byte) (uint64, error) {
	d := cdr.NewDecoder(b)
	n := d.Uint64()
	return n, finish(d, "count")
}

// ShipperFinal is a shipper's own closing account of itself, sent as the
// last frame of its drain. It lets the collection side report, per peer,
// how many records the process emitted, how many its ring dropped, and how
// many reached the wire — numbers only the shipper knows (the server sees
// arrivals, not losses).
type ShipperFinal struct {
	Appended uint64
	Dropped  uint64
	Shipped  uint64
}

func encodeFinal(f ShipperFinal) []byte {
	var e cdr.Encoder
	e.PutUint64(f.Appended)
	e.PutUint64(f.Dropped)
	e.PutUint64(f.Shipped)
	return e.Bytes()
}

func decodeFinal(b []byte) (ShipperFinal, error) {
	d := cdr.NewDecoder(b)
	f := ShipperFinal{Appended: d.Uint64(), Dropped: d.Uint64(), Shipped: d.Uint64()}
	return f, finish(d, "stats")
}
