// Package telemetry ships probe records off-box while the application
// runs — the subsystem (S28) that lifts the paper's restriction that
// analysis happens only "when the application ceases to exist or reaches a
// quiescent state" (§3) beyond a single process: Fig.5-scale multi-process
// deployments stream their scattered logs to one collection daemon
// (cmd/collectd) which feeds both the relational store (offline analyzer)
// and the online monitor (live slow-call / anomaly callbacks).
//
// # Transport and frame format
//
// Shipping rides the repo's own framed TCP transport (internal/transport):
// every message is a length-prefixed transport frame whose Request carries
// ObjectKey "causeway.telemetry" and one of seven operations. The two that
// carry records use the cdr frame body batch.go lays out; the control
// messages are cold and stay gob.
//
//	hello  (sync)   [version byte] + gob(Hello{Version, Process,
//	                ProcType, DebugAddr}) — handshake; the server learns
//	                the peer's identity from internal/topology terms and
//	                replies StatusOK with [version byte] +
//	                gob(HelloReply), which carries the cluster ring when
//	                the collector belongs to one. The leading version
//	                byte is checked before any decoding, in both
//	                directions, so a mismatched peer fails loudly with a
//	                version error instead of a confusing decode failure —
//	                or worse, silently misrouting records around a ring it
//	                cannot parse.
//	ship   (sync)   record frame — one batch of records, in emission
//	                order. The empty StatusOK reply acknowledges
//	                ingestion; the shipper holds the batch until it
//	                arrives.
//	replay (sync)   record frame — a segment replay after a ring
//	                rebalance; the reply is gob(uint64), the records the
//	                receiver accepted as new.
//	stats  (oneway) gob(ShipperFinal) — the shipper's closing account of
//	                itself (appended/dropped/shipped), sent once during
//	                drain so the collection side can report per-peer loss.
//	rate   (sync)   empty — reply gob(float64), the head-sampling rate the
//	                collector wants applied.
//	ring   (sync)   empty — reply gob(Ring), the current cluster ring.
//	flush  (sync)   empty — a barrier; the reply proves every prior frame
//	                on the connection was ingested (the transport reads
//	                and dispatches per-connection frames sequentially).
//
// A record frame (protocol version 3) is a string table followed by
// fixed-layout records:
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
// does. Sinks that implement probe.BatchSink receive a frame's records in
// one call; the others receive them one Append at a time, in the same
// order.
//
// # Backpressure policy
//
// A probe must never block on monitoring I/O (§2.1's interference
// argument, restated for the network). ShipperSink.Append is O(1): it
// writes into a bounded ring buffer and returns. When the buffer is full —
// stalled server, dead link, reconnect storm — the OLDEST buffered record
// is dropped to admit the new one, and the drop is counted. Lost records
// degrade the DSCG (the analyzer flags broken chains as abnormal
// transitions, Figure 4) but never the application. Stats() exposes
// appended/dropped/shipped/reconnect counters so the monitoring layer can
// observe itself.
package telemetry

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// ObjectKey routes telemetry frames within the shared transport namespace.
const ObjectKey = "causeway.telemetry"

// Operations of the shipping protocol.
const (
	opHello = "hello"
	// opShip (sync) carries one record frame (batch.go); the empty StatusOK
	// reply acknowledges ingestion. Shippers hold a batch as pending
	// until the ack arrives, so a collector dying mid-frame loses
	// nothing — the batch is retried on reconnect (or re-routed by
	// Detach), and receivers deduplicate by record identity.
	opShip  = "ship"
	opFlush = "flush"
	opStats = "stats"
	// opRate (sync, empty request) asks the collection daemon for the
	// current head-sampling rate; the reply body is gob(float64). The
	// control loop that closes collectd's load-shedding feedback:
	// shippers poll it periodically and apply the answer to their
	// process's sampling.Controlled. Servers without sampling enabled
	// reject the call and the shipper keeps its current rate.
	opRate = "rate"
	// opRing (sync, empty request) asks for the current cluster ring;
	// the reply body is gob(Ring). Ring-aware shippers poll it so a
	// rebalance (collector joined or died) re-routes records without a
	// reconnect. Collectors outside any cluster reject the call.
	opRing = "ring"
	// opReplay (sync) carries a record frame like ship, but marks
	// the batch as a segment replay after a ring rebalance: the receiver
	// deduplicates against records it already holds and accounts accepted
	// records as Replayed, not freshly shipped — the bucket that keeps
	// the tier-wide conservation ledger from double-counting a moved
	// chain. The reply body is gob(uint64): how many records the
	// receiver accepted as new.
	opReplay = "replay"
)

// ProtocolVersion is bumped on incompatible frame-format changes; the
// server rejects handshakes from other versions. Version 2 added the
// leading version byte on the handshake (both directions), the
// HelloReply payload (cluster ring discovery), and the ring and replay
// operations. Version 3 moved ship and replay frames from gob to the cdr
// record frame; there is no negotiation — peers of different versions
// refuse each other at hello.
const ProtocolVersion = 3

// Hello is the handshake payload: who is shipping. DebugAddr (optional,
// since PR 5) advertises the peer's debug/introspection HTTP address so
// the collection daemon can scrape its /metrics; gob tolerates its
// absence, so the field needs no protocol-version bump.
type Hello struct {
	Version   int
	Process   string // topology.Process.ID
	ProcType  string // topology.Processor.Type
	DebugAddr string // optional debugserver address ("host:port")
}

// encodeHello prefixes the gob payload with the version byte — the one
// byte a peer of any vintage can check before attempting to decode the
// rest. The prefix comes from h.Version so tests can forge mismatches.
func encodeHello(h Hello) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(byte(h.Version))
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return nil, fmt.Errorf("telemetry: encode hello: %w", err)
	}
	return buf.Bytes(), nil
}

// checkVersion validates the leading protocol version byte and returns
// the remaining payload. The error spells out both versions so a
// mismatched deployment is diagnosable from either side's log.
func checkVersion(b []byte, what string) ([]byte, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("telemetry: %s: empty body (peer predates protocol versioning; want version %d)", what, ProtocolVersion)
	}
	if b[0] != ProtocolVersion {
		return nil, fmt.Errorf("telemetry: %s: protocol version %d, want %d (mismatched causeway versions between shipper and collector)", what, b[0], ProtocolVersion)
	}
	return b[1:], nil
}

func decodeHello(b []byte) (Hello, error) {
	var h Hello
	body, err := checkVersion(b, "hello")
	if err != nil {
		return h, err
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&h); err != nil {
		return h, fmt.Errorf("telemetry: decode hello: %w", err)
	}
	return h, nil
}

// HelloReply is the server's handshake answer. HasRing reports whether
// this collector is part of a cluster; when set, Ring is the current
// chain-hash ownership map the shipper should route by.
type HelloReply struct {
	Version int
	HasRing bool
	Ring    Ring
}

func encodeHelloReply(hr HelloReply) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(byte(hr.Version))
	if err := gob.NewEncoder(&buf).Encode(hr); err != nil {
		return nil, fmt.Errorf("telemetry: encode hello reply: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeHelloReply(b []byte) (HelloReply, error) {
	var hr HelloReply
	body, err := checkVersion(b, "hello reply")
	if err != nil {
		return hr, err
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&hr); err != nil {
		return hr, fmt.Errorf("telemetry: decode hello reply: %w", err)
	}
	return hr, nil
}

func encodeRing(r Ring) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, fmt.Errorf("telemetry: encode ring: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeRing(b []byte) (Ring, error) {
	var r Ring
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r); err != nil {
		return r, fmt.Errorf("telemetry: decode ring: %w", err)
	}
	return r, nil
}

func encodeCount(n uint64) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(n); err != nil {
		return nil, fmt.Errorf("telemetry: encode count: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeCount(b []byte) (uint64, error) {
	var n uint64
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&n); err != nil {
		return 0, fmt.Errorf("telemetry: decode count: %w", err)
	}
	return n, nil
}

// ShipperFinal is a shipper's own closing account of itself, sent on the
// oneway stats frame just before the final flush barrier. It lets the
// collection side report, per peer, how many records the process emitted,
// how many its ring dropped, and how many reached the wire — numbers only
// the shipper knows (the server sees arrivals, not losses).
type ShipperFinal struct {
	Appended uint64
	Dropped  uint64
	Shipped  uint64
}

func encodeFinal(f ShipperFinal) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return nil, fmt.Errorf("telemetry: encode stats: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeFinal(b []byte) (ShipperFinal, error) {
	var f ShipperFinal
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&f); err != nil {
		return f, fmt.Errorf("telemetry: decode stats: %w", err)
	}
	return f, nil
}

func encodeRate(rate float64) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rate); err != nil {
		return nil, fmt.Errorf("telemetry: encode rate: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeRate(b []byte) (float64, error) {
	var rate float64
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&rate); err != nil {
		return 0, fmt.Errorf("telemetry: decode rate: %w", err)
	}
	return rate, nil
}
