package probe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"causeway/internal/cdr"
	"causeway/internal/ftl"
	"causeway/internal/uuid"
)

// A frame is the one byte form of a batch of records: the body of the
// telemetry plane's ship and replay messages and, behind a length prefix,
// the unit of a record stream (sink.go — .ftlog files, /exportz, trace store
// segments). It is laid out in the repo's own cdr conventions —
// little-endian integers, uint32-length-prefixed strings, raw 16-byte UUIDs:
//
//	uint32 T                     string-table entries
//	T x string                   the frame's distinct identity strings
//	uint32 N                     records
//	N x record:
//	  octet  kind                KindEvent | KindLink
//	  octet  flags               the wire* bits below
//	  octet  event               ftl.Event
//	  6 x uint32                 table indexes: Process, ProcType,
//	                             Op.Component, Op.Interface, Op.Operation,
//	                             Op.Object
//	  uint64 thread
//	  string semantics           inline, never in the table
//	  [wireHasEvent]             chain[16] seq wallStart wallEnd cpuStart cpuEnd
//	  [wireHasLink]              linkParent[16] linkParentSeq linkChild[16]
//
// A wall time is its Unix nanoseconds, the zero time wireTimeNone. The
// identity strings repeat from record to record (a process emits the
// same six for every probe of an operation), so they travel once per frame
// and records refer to them by index; the decoder resolves each entry once
// per frame and every record of the frame shares the resolved string.
// Semantics is per-record application data, unique by nature: it stays
// inline and never enters the table or the decoder's intern map, where it
// would only evict the vocabulary that does repeat. The two optional blocks
// are present exactly when any of their fields is non-zero — an event
// record carries no link block and a link record no event block — which is
// what keeps an event record at 95 bytes plus its Semantics.
//
// The decoder reads a record as three fixed blocks and its Semantics: the
// 39-byte head (the three octets, the indexes, the thread, the semantics
// length), then the 56-byte event block and the 40-byte link block when the
// flags name them. Each block is checked against the bytes that remain
// once, as a whole, and its fields are read at fixed offsets; the kind, the
// flags and every table index are checked before the record is accepted.
// The table and the counts are checked as they are read, each count against
// the least its items could occupy. Decode and DecodeInto build Records.
// DecodeIndex, what the trace store's recovery reads segments with, checks
// exactly the same and builds an IndexEntry per record instead: every
// scalar field — kind, the four flag booleans, event, thread, chain, seq,
// wall start and end as Unix nanoseconds, CPU start and end — and no string
// and no link block; a frame that holds a link record decodes in full.
// DecodeCompact, what a query's scan reads segments with, checks the same
// again and builds a Compact per record: the entry, and the ids in a
// caller's SymbolTable of the record's strings, the frame's table interned
// once per frame.
const (
	// The flags octet: a record's four booleans, then which blocks follow.
	wireOneway = 1 << iota
	wireCollocated
	wireLatencyArmed
	wireCPUArmed
	wireHasEvent
	wireHasLink
	wireKnown = 1<<iota - 1

	// wireTimeNone encodes the zero time.Time, whose UnixNano is undefined.
	wireTimeNone = int64(math.MinInt64)

	identityStrings = 6
)

// FrameEncoder encodes frames into one buffer reused frame after frame: the
// transport's ownership contract hands a ship Body back the moment Call
// returns, and a stream writer has copied the frame out by then, so the next
// Encode may overwrite it. The string-table index and the index scratch are
// reused too; steady state allocates nothing.
//
// The index is not cleared between frames: it maps every string it has met
// to an entry, and the entry carries the frame it was assigned in, so an
// entry of an earlier frame counts as absent and is reassigned in place —
// one map lookup per string, never a map write for a string met before.
// Once the index holds more than maxEncoderStrings strings or
// maxEncoderKeyBytes bytes of them, the next frame starts it empty. The
// index keeps the strings it met reachable past their frame — unlike the
// decoder's table, which lets a frame's one-off identities go — so the two
// bounds are what an encoder retains: at most 64 KB of strings, plus the
// last frame's, however many new identities it is fed.
type FrameEncoder struct {
	enc      cdr.Encoder
	index    map[string]uint32 // string → its entry in ents
	ents     []tableEntry
	frame    uint32   // the current frame's stamp; 0 is never one
	keyBytes int      // bytes of the index's keys
	refs     []uint32 // identityStrings per record, filled by the table pass
}

// tableEntry is a string's table index in the frame stamped frame.
type tableEntry struct{ frame, idx uint32 }

// The Figure-5 stream's whole identity vocabulary is 1 316 strings of
// 9 981 bytes (seeds 1, 3 and 7 alike), so neither bound resets an encoder
// on it; passing one only costs the clear every frame used to make.
const (
	maxEncoderStrings  = 4096
	maxEncoderKeyBytes = 64 << 10
)

func identityOf(r *Record) [identityStrings]string {
	return [identityStrings]string{r.Process, r.ProcType, r.Op.Component, r.Op.Interface, r.Op.Operation, r.Op.Object}
}

func hasEventBlock(r *Record) bool {
	return r.Chain != (uuid.UUID{}) || r.Seq != 0 || !r.WallStart.IsZero() || !r.WallEnd.IsZero() || r.CPUStart != 0 || r.CPUEnd != 0
}

func hasLinkBlock(r *Record) bool {
	return r.LinkParent != (uuid.UUID{}) || r.LinkParentSeq != 0 || r.LinkChild != (uuid.UUID{})
}

// flagsOf packs r's booleans and which blocks follow into the flags octet.
func flagsOf(r *Record) byte {
	var flags byte
	if r.Oneway {
		flags |= wireOneway
	}
	if r.Collocated {
		flags |= wireCollocated
	}
	if r.LatencyArmed {
		flags |= wireLatencyArmed
	}
	if r.CPUArmed {
		flags |= wireCPUArmed
	}
	if hasEventBlock(r) {
		flags |= wireHasEvent
	}
	if hasLinkBlock(r) {
		flags |= wireHasLink
	}
	return flags
}

func putTime(e *cdr.Encoder, t time.Time) {
	if t.IsZero() {
		e.PutInt64(wireTimeNone)
		return
	}
	e.PutInt64(t.UnixNano())
}

// Encode renders recs as one frame body. The result aliases the encoder's
// buffer and is valid until the next Encode.
func (b *FrameEncoder) Encode(recs []Record) []byte {
	b.frame++
	if b.frame == 0 || len(b.ents) > maxEncoderStrings || b.keyBytes > maxEncoderKeyBytes {
		clear(b.index)
		b.ents, b.frame, b.keyBytes = b.ents[:0], 1, 0
	}
	if b.index == nil {
		b.index = make(map[string]uint32)
	}
	b.refs = b.refs[:0]
	e := &b.enc
	e.Reset()

	// Table pass: assign every identity string its index, writing each
	// distinct one once; the count is patched in when it is known.
	e.PutUint32(0)
	var n uint32
	var prev [identityStrings]string
	var prevIdx [identityStrings]uint32
	for i := range recs {
		for j, s := range identityOf(&recs[i]) {
			// Neighbouring records mostly repeat each other's identity;
			// comparing against the previous record's field (equal
			// pointers compare in one step) spares the map that case.
			if i > 0 && s == prev[j] {
				b.refs = append(b.refs, prevIdx[j])
				continue
			}
			pos, ok := b.index[s]
			if !ok {
				pos = uint32(len(b.ents))
				b.index[s] = pos
				b.ents = append(b.ents, tableEntry{})
				b.keyBytes += len(s)
			}
			ent := &b.ents[pos]
			if ent.frame != b.frame {
				ent.frame, ent.idx = b.frame, n
				n++
				e.PutString(s)
			}
			prev[j], prevIdx[j] = s, ent.idx
			b.refs = append(b.refs, ent.idx)
		}
	}
	binary.LittleEndian.PutUint32(e.Bytes(), n)

	e.PutUint32(uint32(len(recs)))
	refs := b.refs
	for i := range recs {
		r := &recs[i]
		flags := flagsOf(r)
		e.PutOctet(byte(r.Kind))
		e.PutOctet(flags)
		e.PutOctet(byte(r.Event))
		for _, idx := range refs[:identityStrings] {
			e.PutUint32(idx)
		}
		refs = refs[identityStrings:]
		e.PutUint64(r.Thread)
		e.PutString(r.Semantics)
		if flags&wireHasEvent != 0 {
			e.PutRaw(r.Chain[:])
			e.PutUint64(r.Seq)
			putTime(e, r.WallStart)
			putTime(e, r.WallEnd)
			e.PutInt64(int64(r.CPUStart))
			e.PutInt64(int64(r.CPUEnd))
		}
		if flags&wireHasLink != 0 {
			e.PutRaw(r.LinkParent[:])
			e.PutUint64(r.LinkParentSeq)
			e.PutRaw(r.LinkChild[:])
		}
	}
	return e.Bytes()
}

// EncodeFrame is a one-off encode into a fresh buffer (couriers, tests).
func EncodeFrame(recs []Record) []byte {
	var b FrameEncoder
	return b.Encode(recs)
}

// A decoder's intern map holds at most maxInternedStrings strings of at
// most maxInternedLen bytes — the discipline of the transport's
// per-connection interner: past the cap the map stops growing and unseen
// strings are allocated per frame, so a peer sending adversarially unique
// (or huge) identities cannot exhaust memory. maxTableScratch and
// maxSlabRecords bound the table scratch and the record, entry and compact
// slabs a connection keeps between frames the same way (a quarter of a
// megabyte of records; a shipper's frame is 256 of them).
const (
	maxInternedStrings = 1024
	maxInternedLen     = 256
	maxTableScratch    = 4096
	maxSlabRecords     = 1024
)

// FrameDecoder is the decode state of one frame source — a telemetry
// connection, a record stream: the bounded intern map that makes every frame
// of a process resolve its vocabulary to the same strings, and the table
// scratch and the record, entry and compact slabs reused from frame to
// frame. Once a source's vocabulary has been seen, decoding a frame
// allocates whatever Semantics the records carry and nothing else. The zero
// value is ready to use.
type FrameDecoder struct {
	interned map[string]string
	table    []string
	ids      []uint32 // the table as symbol ids, for DecodeCompact
	slab     []Record
	ents     []IndexEntry
	compacts []Compact
}

// intern returns b as a string, shared with every earlier occurrence on
// this connection. The result is always a copy: frames arrive in pooled or
// caller-owned buffers, and a decoded record must never alias one.
func (d *FrameDecoder) intern(b []byte) string {
	if s, ok := d.interned[string(b)]; ok { // lookup-only conversion: no allocation
		return s
	}
	s := string(b)
	if len(d.interned) < maxInternedStrings && len(s) <= maxInternedLen {
		if d.interned == nil {
			d.interned = make(map[string]string)
		}
		d.interned[s] = s
	}
	return s
}

// IndexEntry is a record without its strings and its link block: every
// other field a full decode gives, in a value that holds no pointer, so a
// slab of them costs the garbage collector nothing to scan. WallStart and
// WallEnd are Unix nanoseconds, NoWallTime for the zero time.Time.
type IndexEntry struct {
	Chain              uuid.UUID
	Seq                uint64
	Thread             uint64
	WallStart, WallEnd int64
	CPUStart, CPUEnd   time.Duration
	Kind               RecordKind
	Event              ftl.Event

	Oneway, Collocated, LatencyArmed, CPUArmed bool
}

// NoWallTime is an IndexEntry's wall time for a record that carries none.
const NoWallTime = wireTimeNone

func wallNanos(t time.Time) int64 {
	if t.IsZero() {
		return NoWallTime
	}
	return t.UnixNano()
}

// entryOf is r's IndexEntry.
func entryOf(r *Record) IndexEntry {
	return IndexEntry{
		Chain: r.Chain, Seq: r.Seq, Thread: r.Thread,
		WallStart: wallNanos(r.WallStart), WallEnd: wallNanos(r.WallEnd),
		CPUStart: r.CPUStart, CPUEnd: r.CPUEnd,
		Kind: r.Kind, Event: r.Event,
		Oneway: r.Oneway, Collocated: r.Collocated, LatencyArmed: r.LatencyArmed, CPUArmed: r.CPUArmed,
	}
}

// AppendIndexEntries appends the entry of each of recs to dst: what
// DecodeIndex gives for the frame recs encode to.
func AppendIndexEntries(dst []IndexEntry, recs []Record) []IndexEntry {
	for i := range recs {
		dst = append(dst, entryOf(&recs[i]))
	}
	return dst
}

// Decode parses one frame body. Any malformation — truncation, a count
// larger than the bytes behind it, a table index out of range, an unknown
// kind or flag bit, trailing bytes — is an error, never a panic. The result
// is the decoder's slab: it is valid until the next Decode, which is why the
// telemetry server's sinks and stores and ReadFrames' callback borrow a
// frame's records and never keep them.
func (d *FrameDecoder) Decode(body []byte) ([]Record, error) { return d.DecodeInto(body, nil) }

// DecodeInto is Decode into dst's backing array when the frame's records fit
// its capacity — dst[:n] is overwritten whole and returned, the caller owns
// it — and into the decoder's slab when they do not. The trace store's scan
// decodes a chain's frames straight into the chain's slot of one slab with
// it.
func (d *FrameDecoder) DecodeInto(body []byte, dst []Record) ([]Record, error) {
	recs, err := d.decode(body, dst)
	if err != nil {
		return nil, fmt.Errorf("probe: decode frame: %w", err)
	}
	return recs, nil
}

func (d *FrameDecoder) decode(body []byte, dst []Record) ([]Record, error) {
	b, _, err := d.readTable(body, true, nil)
	var recs []Record
	if err == nil {
		recs, err = decodeRecords(b, d.table, dst, d.slab)
	}
	d.keepTable()
	// The slab does keep its frame's strings until the next frame overwrites
	// them — one frame's worth per live connection, let go at disconnect. A
	// frame too large to keep decodes into a slab of its own; a frame
	// decoded into the caller's dst leaves the slab as it was.
	if len(recs) > cap(dst) && cap(recs) > cap(d.slab) && cap(recs) <= maxSlabRecords {
		d.slab = recs[:0]
	}
	return recs, err
}

// DecodeIndex is the decode of an index that keeps a location per event
// and every link whole. It checks every bound Decode checks and fails
// wherever Decode fails; otherwise ents holds each record's IndexEntry, and
// no string is interned or allocated. A frame that holds a link record
// decodes in full: recs is then its records, as Decode gives them, beside
// their entries, and nil for a frame of events. Both are the decoder's
// slabs, valid until its next decode.
func (d *FrameDecoder) DecodeIndex(body []byte) (ents []IndexEntry, recs []Record, err error) {
	b, ntable, err := d.readTable(body, false, nil)
	if err == nil {
		ents, err = decodeEntries(b, ntable, d.ents)
		if err == errLinkInIndex {
			if recs, err = d.decode(body, nil); err == nil {
				ents = AppendIndexEntries(d.ents[:0], recs)
			}
		}
	}
	if cap(ents) > cap(d.ents) && cap(ents) <= maxSlabRecords {
		d.ents = ents[:0]
	}
	if err != nil {
		return nil, nil, fmt.Errorf("probe: decode frame: %w", err)
	}
	return ents, recs, nil
}

// DecodeCompact is the decode of a query. It checks every bound Decode
// checks and fails wherever Decode fails; otherwise each record becomes a
// Compact whose strings are tab's — each entry of the frame's string table
// interned once, each Semantics added — without the link block a link
// record carries. The compacts are dst[:n] when the frame's records fit
// dst's capacity, else the decoder's slab, valid until its next decode.
func (d *FrameDecoder) DecodeCompact(body []byte, tab *SymbolTable, dst []Compact) ([]Compact, error) {
	d.ids = d.ids[:0]
	b, _, err := d.readTable(body, false, tab)
	var cs []Compact
	if err == nil {
		cs, err = decodeCompacts(b, d.ids, tab, dst, d.compacts)
	}
	if len(cs) > cap(dst) && cap(cs) > cap(d.compacts) && cap(cs) <= maxSlabRecords {
		d.compacts = cs[:0]
	}
	if cap(d.ids) > maxTableScratch {
		d.ids = nil
	}
	if err != nil {
		return nil, fmt.Errorf("probe: decode frame: %w", err)
	}
	return cs, nil
}

// errLinkInIndex stops an entry decode at a link record: the frame is
// decoded again in full.
var errLinkInIndex = errors.New("link record in an index decode")

// readTable checks the string table at the head of body and returns the
// bytes behind it and its entry count. With resolve set, it leaves in
// d.table each entry resolved through the intern map; with tab, in d.ids
// each entry's symbol id in tab.
func (d *FrameDecoder) readTable(body []byte, resolve bool, tab *SymbolTable) (rest []byte, ntable uint32, err error) {
	if len(body) < 4 {
		return nil, 0, fmt.Errorf("%w: %d bytes for the string table's count", cdr.ErrShortBuffer, len(body))
	}
	nstr, b := binary.LittleEndian.Uint32(body), body[4:]
	if int64(nstr) > int64(len(b)/minStringSize) {
		return nil, 0, fmt.Errorf("string table of %d entries in %d bytes", nstr, len(b))
	}
	for i := uint32(0); i < nstr; i++ {
		if len(b) < 4 {
			return nil, 0, fmt.Errorf("%w: string %d's length cut off", cdr.ErrShortBuffer, i)
		}
		n := binary.LittleEndian.Uint32(b)
		if b = b[4:]; uint64(n) > uint64(len(b)) {
			return nil, 0, fmt.Errorf("%w: string %d of %d bytes in %d", cdr.ErrShortBuffer, i, n, len(b))
		}
		if resolve {
			d.table = append(d.table, d.intern(b[:n]))
		} else if tab != nil {
			d.ids = append(d.ids, tab.internBytes(b[:n]))
		}
		b = b[n:]
	}
	return b, nstr, nil
}

// keepTable keeps the table's scratch, not its strings: a frame's one-off
// identities must not stay reachable from an idle connection. The frame's
// records already hold what they resolved.
func (d *FrameDecoder) keepTable() {
	table := d.table
	clear(table)
	d.table = nil
	if cap(table) <= maxTableScratch {
		d.table = table[:0]
	}
}

// Each record's three fixed blocks. A record's head is the least it
// occupies: counts read off the wire are bounded by the bytes that remain
// divided by the least each counted item occupies, so a hostile length
// field can never size an allocation beyond what the frame really carries.
const (
	minRecordSize  = 3 + identityStrings*4 + 8 + 4 // kind, flags, event, indexes, thread, semantics length
	eventBlockSize = uuid.Size + 8 + 4*8           // chain, seq, wall start and end, CPU start and end
	linkBlockSize  = uuid.Size + 8 + uuid.Size     // parent, parent seq, child
	minStringSize  = 4
)

// wireRecord is one record of a frame as it lies in the body: its head,
// its Semantics, and its event and link blocks, nil when absent. Every
// block is a fixed-size array checked against the body once, so its fields
// are read at constant offsets with no further check.
type wireRecord struct {
	head      *[minRecordSize]byte
	semantics []byte
	event     *[eventBlockSize]byte
	link      *[linkBlockSize]byte
}

// cut takes the record at the front of b, checking it whole: every block
// the flags name present, each table index below ntable, the kind known and
// no unknown flag bit set. It returns the bytes behind the record.
func (w *wireRecord) cut(b []byte, ntable uint32) ([]byte, error) {
	if len(b) < minRecordSize {
		return nil, fmt.Errorf("%w: %d bytes left for a %d-byte record head", cdr.ErrShortBuffer, len(b), minRecordSize)
	}
	h := (*[minRecordSize]byte)(b)
	le := binary.LittleEndian
	for _, idx := range [identityStrings]uint32{le.Uint32(h[3:7]), le.Uint32(h[7:11]), le.Uint32(h[11:15]), le.Uint32(h[15:19]), le.Uint32(h[19:23]), le.Uint32(h[23:27])} {
		if idx >= ntable {
			return nil, fmt.Errorf("string index %d outside table of %d", idx, ntable)
		}
	}
	n := le.Uint32(h[35:39])
	if b = b[minRecordSize:]; uint64(n) > uint64(len(b)) {
		return nil, fmt.Errorf("%w: semantics of %d bytes in %d", cdr.ErrShortBuffer, n, len(b))
	}
	*w = wireRecord{head: h, semantics: b[:n]}
	b = b[n:]
	flags := h[1]
	if flags&wireHasEvent != 0 {
		if len(b) < eventBlockSize {
			return nil, fmt.Errorf("%w: %d bytes left for the event block", cdr.ErrShortBuffer, len(b))
		}
		w.event, b = (*[eventBlockSize]byte)(b), b[eventBlockSize:]
	}
	if flags&wireHasLink != 0 {
		if len(b) < linkBlockSize {
			return nil, fmt.Errorf("%w: %d bytes left for the link block", cdr.ErrShortBuffer, len(b))
		}
		w.link, b = (*[linkBlockSize]byte)(b), b[linkBlockSize:]
	}
	if kind := RecordKind(h[0]); kind != KindEvent && kind != KindLink {
		return nil, fmt.Errorf("kind %d", kind)
	}
	if flags&^wireKnown != 0 {
		return nil, fmt.Errorf("flags %#x", flags)
	}
	return b, nil
}

func (w *wireRecord) kind() RecordKind { return RecordKind(w.head[0]) }

// ident is the record's identity string j, resolved through table.
func (w *wireRecord) ident(table []string, j int) string {
	return table[binary.LittleEndian.Uint32(w.head[3+4*j:])]
}

func wireTime(b []byte) time.Time { return WallTime(int64(binary.LittleEndian.Uint64(b))) }

// entryInto writes the record's IndexEntry into e, every field.
func (w *wireRecord) entryInto(e *IndexEntry) {
	h, flags, le := w.head, w.head[1], binary.LittleEndian
	e.Thread = le.Uint64(h[27:35])
	e.Kind, e.Event = w.kind(), ftl.Event(h[2])
	e.Oneway, e.Collocated = flags&wireOneway != 0, flags&wireCollocated != 0
	e.LatencyArmed, e.CPUArmed = flags&wireLatencyArmed != 0, flags&wireCPUArmed != 0
	if ev := w.event; ev != nil {
		e.Chain = uuid.UUID(ev[0:16])
		e.Seq = le.Uint64(ev[16:24])
		// The wire's wall time is Unix nanoseconds, and its wireTimeNone
		// is NoWallTime.
		e.WallStart = int64(le.Uint64(ev[24:32]))
		e.WallEnd = int64(le.Uint64(ev[32:40]))
		e.CPUStart = time.Duration(le.Uint64(ev[40:48]))
		e.CPUEnd = time.Duration(le.Uint64(ev[48:56]))
		return
	}
	e.Chain, e.Seq = uuid.UUID{}, 0
	e.WallStart, e.WallEnd = NoWallTime, NoWallTime
	e.CPUStart, e.CPUEnd = 0, 0
}

// recordCount reads the record section's count, bounded by the bytes
// behind it, and returns those bytes.
func recordCount(b []byte) (int, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("%w: %d bytes for the record count", cdr.ErrShortBuffer, len(b))
	}
	n, b := binary.LittleEndian.Uint32(b), b[4:]
	if int64(n) > int64(len(b)/minRecordSize) {
		return 0, nil, fmt.Errorf("%d records in %d bytes", n, len(b))
	}
	return int(n), b, nil
}

// decodeRecords parses the record section b against table, into dst when
// the frame fits it, else into slab when it fits that. Every slot it
// returns is written whole, so nothing of the frame the slab held before
// shows through.
func decodeRecords(b []byte, table []string, dst, slab []Record) ([]Record, error) {
	nrec, b, err := recordCount(b)
	if err != nil {
		return nil, err
	}
	var recs []Record
	switch {
	case nrec <= cap(dst):
		recs = dst[:nrec]
	case nrec <= cap(slab):
		recs = slab[:nrec]
	default:
		recs = make([]Record, nrec)
	}
	ntable := uint32(len(table))
	le := binary.LittleEndian
	for i := range recs {
		var w wireRecord
		if b, err = w.cut(b, ntable); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		h, flags := w.head, w.head[1]
		// Field by field into the zeroed slot: a composite literal would
		// be built aside and copied in, 272 bytes twice per record.
		r := &recs[i]
		*r = Record{}
		r.Kind = w.kind()
		r.Process, r.ProcType = w.ident(table, 0), w.ident(table, 1)
		r.Op.Component, r.Op.Interface = w.ident(table, 2), w.ident(table, 3)
		r.Op.Operation, r.Op.Object = w.ident(table, 4), w.ident(table, 5)
		r.Thread = le.Uint64(h[27:35])
		r.Semantics = string(w.semantics)
		r.Event = ftl.Event(h[2])
		r.Oneway, r.Collocated = flags&wireOneway != 0, flags&wireCollocated != 0
		r.LatencyArmed, r.CPUArmed = flags&wireLatencyArmed != 0, flags&wireCPUArmed != 0
		if e := w.event; e != nil {
			r.Chain = uuid.UUID(e[0:16])
			r.Seq = le.Uint64(e[16:24])
			r.WallStart = wireTime(e[24:32])
			r.WallEnd = wireTime(e[32:40])
			r.CPUStart = time.Duration(le.Uint64(e[40:48]))
			r.CPUEnd = time.Duration(le.Uint64(e[48:56]))
		}
		if l := w.link; l != nil {
			r.LinkParent = uuid.UUID(l[0:16])
			r.LinkParentSeq = le.Uint64(l[16:24])
			r.LinkChild = uuid.UUID(l[24:40])
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return recs, nil
}

// decodeCompacts is decodeRecords into Compact values, against a table
// given as its entries' ids in tab: into dst when the frame fits it, else
// into slab when it fits that.
func decodeCompacts(b []byte, ids []uint32, tab *SymbolTable, dst, slab []Compact) ([]Compact, error) {
	nrec, b, err := recordCount(b)
	if err != nil {
		return nil, err
	}
	var cs []Compact
	switch {
	case nrec <= cap(dst):
		cs = dst[:nrec]
	case nrec <= cap(slab):
		cs = slab[:nrec]
	default:
		cs = make([]Compact, nrec)
	}
	ntable := uint32(len(ids))
	le := binary.LittleEndian
	for i := range cs {
		var w wireRecord
		if b, err = w.cut(b, ntable); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		// Field by field into the slot: a composite literal would be
		// built aside and copied in.
		h, c := w.head, &cs[i]
		w.entryInto(&c.IndexEntry)
		c.Process, c.ProcType = ids[le.Uint32(h[3:7])], ids[le.Uint32(h[7:11])]
		c.Op.Component, c.Op.Interface = ids[le.Uint32(h[11:15])], ids[le.Uint32(h[15:19])]
		c.Op.Operation, c.Op.Object = ids[le.Uint32(h[19:23])], ids[le.Uint32(h[23:27])]
		c.Semantics, c.Part = tab.add(string(w.semantics)), tab.part
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return cs, nil
}

// decodeEntries is decodeRecords into IndexEntry values, against a table
// of ntable entries it does not resolve: into slab when the frame fits it.
// A link record stops it with errLinkInIndex.
func decodeEntries(b []byte, ntable uint32, slab []IndexEntry) ([]IndexEntry, error) {
	nrec, b, err := recordCount(b)
	if err != nil {
		return nil, err
	}
	ents := slab
	if nrec > cap(slab) {
		ents = make([]IndexEntry, nrec)
	}
	ents = ents[:nrec]
	for i := range ents {
		var w wireRecord
		if b, err = w.cut(b, ntable); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		if w.kind() == KindLink {
			return nil, errLinkInIndex
		}
		w.entryInto(&ents[i])
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return ents, nil
}
