package probe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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
// once per frame. DecodeFrame, what the telemetry server hands a chain
// table, checks the same once more and interns nothing: each record is a
// Compact whose ids index the frame's own table, left as slices of the
// body, and a FrameRemap maps an entry into a SymbolTable the first time a
// record converted through it names the entry.
//
// EncodeCompacts is Encode for records held compact — the trace store's
// write of an evicted chain: it writes the bytes Encode writes for the
// records the compacts resolve to, but for link blocks, which a Compact
// does not hold. The two differ only in the table pass: Encode finds a
// string's entry through a map by string, EncodeCompacts through a stamp
// slice by symbol id, with no hashing, and both then write each record
// with putRecord.
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
//
// EncodeCompacts stamps by symbol id instead: stamps[id] is the id's entry
// in the frame that stamped it, so a symbol table's ids need no map. The
// stamps grow to the largest id an encode has named and are kept, one
// 8-byte stamp an id: under half of what the largest symbol table the
// encoder has read from held an id (a string header and its bytes). A
// table's ids count its Semantics too, so an identity string it interns
// late can have an id far past its count of identity strings.
type FrameEncoder struct {
	enc      cdr.Encoder
	index    map[string]uint32 // string → its entry in ents
	ents     []tableEntry
	stamps   []tableEntry // by symbol id, for EncodeCompacts
	frame    uint32       // the current frame's stamp; 0 is never one
	keyBytes int          // bytes of the index's keys
	refs     []uint32     // identityStrings per record, filled by the table pass
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

func hasLinkBlock(r *Record) bool {
	return r.LinkParent != (uuid.UUID{}) || r.LinkParentSeq != 0 || r.LinkChild != (uuid.UUID{})
}

// entryFlags packs the booleans of the record e is the entry of, and
// whether its event block follows, into the flags octet; Encode adds the
// link block's bit.
func entryFlags(e *IndexEntry) byte {
	var flags byte
	if e.Oneway {
		flags |= wireOneway
	}
	if e.Collocated {
		flags |= wireCollocated
	}
	if e.LatencyArmed {
		flags |= wireLatencyArmed
	}
	if e.CPUArmed {
		flags |= wireCPUArmed
	}
	if e.Chain != (uuid.UUID{}) || e.Seq != 0 || e.WallStart != NoWallTime || e.WallEnd != NoWallTime || e.CPUStart != 0 || e.CPUEnd != 0 {
		flags |= wireHasEvent
	}
	return flags
}

// begin starts a frame: a fresh stamp, and the table's count, patched in
// by the table pass once it is known. When the stamp wraps, every entry of
// an earlier frame is forgotten.
func (b *FrameEncoder) begin() *cdr.Encoder {
	if b.frame++; b.frame == 0 {
		clear(b.index)
		clear(b.stamps)
		b.ents, b.frame, b.keyBytes = b.ents[:0], 1, 0
	}
	b.refs = b.refs[:0]
	e := &b.enc
	e.Reset()
	e.PutUint32(0)
	return e
}

// putRecord writes one record behind the table — its head, its Semantics
// and its event block; a link block, which only Encode's records carry,
// the caller writes after it. ent is the record's entry, flags its flags
// octet and refs its identityStrings table indexes. Both encoders write
// every record through it.
func putRecord(e *cdr.Encoder, ent *IndexEntry, flags byte, refs []uint32, semantics string) {
	e.PutOctet(byte(ent.Kind))
	e.PutOctet(flags)
	e.PutOctet(byte(ent.Event))
	for _, idx := range refs[:identityStrings] {
		e.PutUint32(idx)
	}
	e.PutUint64(ent.Thread)
	e.PutString(semantics)
	if flags&wireHasEvent != 0 {
		e.PutRaw(ent.Chain[:])
		e.PutUint64(ent.Seq)
		// An entry's wall time is the wire's: Unix nanoseconds, NoWallTime
		// for none.
		e.PutInt64(ent.WallStart)
		e.PutInt64(ent.WallEnd)
		e.PutInt64(int64(ent.CPUStart))
		e.PutInt64(int64(ent.CPUEnd))
	}
}

// Encode renders recs as one frame body. The result aliases the encoder's
// buffer and is valid until the next Encode.
func (b *FrameEncoder) Encode(recs []Record) []byte {
	e := b.begin()
	if len(b.ents) > maxEncoderStrings || b.keyBytes > maxEncoderKeyBytes {
		clear(b.index)
		b.ents, b.keyBytes = b.ents[:0], 0
	}
	if b.index == nil {
		b.index = make(map[string]uint32)
	}

	// Table pass: assign every identity string its index, writing each
	// distinct one once.
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
		ent := entryOf(r)
		flags := entryFlags(&ent)
		if hasLinkBlock(r) {
			flags |= wireHasLink
		}
		putRecord(e, &ent, flags, refs, r.Semantics)
		refs = refs[identityStrings:]
		if flags&wireHasLink != 0 {
			e.PutRaw(r.LinkParent[:])
			e.PutUint64(r.LinkParentSeq)
			e.PutRaw(r.LinkChild[:])
		}
	}
	return e.Bytes()
}

// EncodeCompacts renders cs, their strings tab's, as the frame Encode
// renders the records they resolve to, link blocks aside — the same bytes,
// since tab interns and one identity id is one string. Its table pass
// stamps each id by the frame, in a slice indexed by id: no string is
// hashed. The result aliases the encoder's buffer and is valid until its
// next encode.
func (b *FrameEncoder) EncodeCompacts(cs []Compact, tab *SymbolTable) []byte {
	e := b.begin()
	var n uint32
	for i := range cs {
		c := &cs[i]
		for _, id := range [identityStrings]uint32{c.Process, c.ProcType, c.Op.Component, c.Op.Interface, c.Op.Operation, c.Op.Object} {
			if int(id) >= len(b.stamps) {
				b.stamps = slices.Grow(b.stamps, int(id)+1-len(b.stamps))[:int(id)+1]
			}
			st := &b.stamps[id]
			if st.frame != b.frame {
				st.frame, st.idx = b.frame, n
				n++
				e.PutString(tab.String(id))
			}
			b.refs = append(b.refs, st.idx)
		}
	}
	binary.LittleEndian.PutUint32(e.Bytes(), n)

	e.PutUint32(uint32(len(cs)))
	refs := b.refs
	for i := range cs {
		c := &cs[i]
		putRecord(e, &c.IndexEntry, entryFlags(&c.IndexEntry), refs, tab.String(c.Semantics))
		refs = refs[identityStrings:]
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
// scratch and the record, entry, compact and frame slabs reused from frame
// to frame. Once a source's vocabulary has been seen, decoding a frame
// allocates whatever Semantics the records carry and nothing else, and
// DecodeFrame allocates nothing at all. The zero value is ready to use.
type FrameDecoder struct {
	interned map[string]string
	table    []string
	ids      []uint32 // the table as symbol ids, for DecodeCompact
	slab     []Record
	ents     []IndexEntry
	compacts []Compact
	frame    Frame // DecodeFrame's, its slices the slabs it reuses
}

// Frame is a frame as DecodeFrame leaves it for a consumer that interns
// strings itself — a collector's chain table, through a FrameRemap. It
// aliases the body it was decoded from.
type Frame struct {
	// Strings is the frame's string table, each entry a slice of the body.
	Strings [][]byte
	// Records holds each record's entry and, as its Process, ProcType and
	// Op, the indexes in Strings of its identity strings. Semantics and
	// Part are 0.
	Records []Compact
	// Semantics is each record's Semantics, a slice of the body.
	Semantics [][]byte
	// Links is the link block of each link record, in frame order; zero
	// for a link record that carries none. An event record's link block is
	// dropped, as DecodeCompact drops it.
	Links []LinkBlock
}

// Resolve writes into dst record i of f without its link block, its
// strings copied out of the frame's body.
func (f *Frame) Resolve(dst *Record, i int) {
	c := &f.Records[i]
	c.IndexEntry.resolve(dst)
	str := func(e uint32) string { return string(f.Strings[e]) }
	dst.Process, dst.ProcType = str(c.Process), str(c.ProcType)
	dst.Op = OpID{Component: str(c.Op.Component), Interface: str(c.Op.Interface), Operation: str(c.Op.Operation), Object: str(c.Op.Object)}
	dst.Semantics = string(f.Semantics[i])
}

// LinkBlock is a link record's link block: the oneway call's chain, its
// seq there, and the chain it forked.
type LinkBlock struct {
	Parent    uuid.UUID
	ParentSeq uint64
	Child     uuid.UUID
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
	b, _, err := d.readTable(body, func(s []byte) { d.table = append(d.table, d.intern(s)) })
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
	b, ntable, err := d.readTable(body, nil)
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
	b, _, err := d.readTable(body, func(s []byte) { d.ids = append(d.ids, tab.internBytes(s)) })
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

// DecodeFrame is the decode of a collector's chain table. It checks every
// bound Decode checks and fails wherever Decode fails; otherwise the frame
// holds the body's string table and each record as a Compact whose ids
// index it, and no string is interned, hashed or allocated. The frame is
// the decoder's and aliases body: it is valid until the next DecodeFrame,
// and while body is. Slabs that a frame of more than maxSlabRecords
// records, or a table of more than maxTableScratch entries, made grow are
// let go at the next DecodeFrame.
func (d *FrameDecoder) DecodeFrame(body []byte) (*Frame, error) {
	f := &d.frame
	if cap(f.Strings) > maxTableScratch {
		f.Strings = nil
	}
	if cap(f.Records) > maxSlabRecords {
		f.Records, f.Semantics, f.Links = nil, nil, nil
	}
	f.Strings, f.Links = f.Strings[:0], f.Links[:0]
	b, _, err := d.readTable(body, func(s []byte) { f.Strings = append(f.Strings, s) })
	if err == nil {
		err = decodeFrame(b, f)
	}
	if err != nil {
		return nil, fmt.Errorf("probe: decode frame: %w", err)
	}
	return f, nil
}

// errLinkInIndex stops an entry decode at a link record: the frame is
// decoded again in full.
var errLinkInIndex = errors.New("link record in an index decode")

// readTable checks the string table at the head of body and returns the
// bytes behind it and its entry count. each, when set, sees every entry in
// order, a slice of body.
func (d *FrameDecoder) readTable(body []byte, each func(s []byte)) (rest []byte, ntable uint32, err error) {
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
		if each != nil {
			each(b[:n])
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

// decodeFrame is decodeRecords into f, against the table f.Strings holds.
func decodeFrame(b []byte, f *Frame) error {
	nrec, b, err := recordCount(b)
	if err != nil {
		return err
	}
	if nrec > cap(f.Records) {
		f.Records, f.Semantics = make([]Compact, nrec), make([][]byte, nrec)
	}
	cs, sems := f.Records[:nrec], f.Semantics[:nrec]
	f.Records, f.Semantics = cs, sems
	ntable := uint32(len(f.Strings))
	le := binary.LittleEndian
	for i := range cs {
		var w wireRecord
		if b, err = w.cut(b, ntable); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		h, c := w.head, &cs[i]
		w.entryInto(&c.IndexEntry)
		c.Process, c.ProcType = le.Uint32(h[3:7]), le.Uint32(h[7:11])
		c.Op = CompactOp{le.Uint32(h[11:15]), le.Uint32(h[15:19]), le.Uint32(h[19:23]), le.Uint32(h[23:27])}
		c.Semantics, c.Part = 0, 0
		sems[i] = w.semantics
		if w.kind() == KindLink {
			var l LinkBlock
			if w.link != nil {
				l = LinkBlock{Parent: uuid.UUID(w.link[0:16]), ParentSeq: le.Uint64(w.link[16:24]), Child: uuid.UUID(w.link[24:40])}
			}
			f.Links = append(f.Links, l)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(b))
	}
	return nil
}

// FrameRemap maps the string table of one Frame into a SymbolTable, an
// entry the first time a record converted through it names the entry: one
// lookup per distinct string the frame's records use, none for an entry
// no record uses. A collector's chain table keeps one a generation of
// symbols its frame's chains intern in. The zero value is ready for Reset.
type FrameRemap struct {
	tab *SymbolTable
	ids []uint32 // by table entry: its id in tab, or unmapped
}

// unmapped marks a FrameRemap entry no record has named yet.
const unmapped = math.MaxUint32

// Reset readies m to map f's table into tab.
func (m *FrameRemap) Reset(tab *SymbolTable, f *Frame) {
	n := len(f.Strings)
	if cap(m.ids) > maxTableScratch && n <= maxTableScratch {
		m.ids = nil
	}
	m.tab, m.ids = tab, slices.Grow(m.ids[:0], n)[:n]
	for i := range m.ids {
		m.ids[i] = unmapped
	}
}

// Table is the table m maps into; nil once released.
func (m *FrameRemap) Table() *SymbolTable { return m.tab }

// Release lets go of m's table, so that a remap kept for the next frame
// keeps no generation of symbols alive.
func (m *FrameRemap) Release() { m.tab = nil }

// Convert writes record i of f into dst, its identity strings interned in
// m's table and its Semantics added there, as SymbolTable.Convert writes
// the record Decode gives, link block aside.
func (m *FrameRemap) Convert(dst *Compact, f *Frame, i int) {
	src := &f.Records[i]
	dst.IndexEntry = src.IndexEntry
	ids := [identityStrings]uint32{src.Process, src.ProcType, src.Op.Component, src.Op.Interface, src.Op.Operation, src.Op.Object}
	for j, e := range ids {
		id := m.ids[e]
		if id == unmapped {
			id = m.tab.internBytes(f.Strings[e])
			m.ids[e] = id
		}
		ids[j] = id
	}
	dst.Process, dst.ProcType = ids[0], ids[1]
	dst.Op = CompactOp{ids[2], ids[3], ids[4], ids[5]}
	dst.Semantics = m.tab.add(string(f.Semantics[i]))
	dst.Part = m.tab.part
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
