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
	// minRecordSize is a record with empty semantics and neither block:
	// three octets, the indexes, the thread, the semantics length. Counts
	// read off the wire are bounded by the bytes that remain divided by
	// the least each counted item occupies, so a hostile length field can
	// never size an allocation beyond what the frame really carries.
	minRecordSize = 3 + identityStrings*4 + 8 + 4
	minStringSize = 4
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

func getTime(d *cdr.Decoder) time.Time {
	if v := d.Int64(); v != wireTimeNone {
		return time.Unix(0, v)
	}
	return time.Time{}
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
// maxSlabRecords bound the table scratch and the record slab a connection
// keeps between frames the same way (a quarter of a megabyte of records; a
// shipper's frame is 256 of them).
const (
	maxInternedStrings = 1024
	maxInternedLen     = 256
	maxTableScratch    = 4096
	maxSlabRecords     = 1024
)

// FrameDecoder is the decode state of one frame source — a telemetry
// connection, a record stream: the bounded intern map that makes every frame
// of a process resolve its vocabulary to the same strings, and the table
// scratch and record slab reused from frame to frame. Once a source's
// vocabulary has been seen, decoding a frame allocates whatever Semantics
// the records carry and nothing else. The zero value is ready to use.
type FrameDecoder struct {
	interned map[string]string
	table    []string
	slab     []Record
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

// Decode parses one frame body. Any malformation — truncation, a count
// larger than the bytes behind it, a table index out of range, an unknown
// kind or flag bit, trailing bytes — is an error, never a panic. The result
// is the decoder's slab: it is valid until the next Decode, which is why the
// telemetry server's sinks and stores and ReadFrames' callback borrow a
// frame's records and never keep them.
func (d *FrameDecoder) Decode(body []byte) ([]Record, error) { return d.decode(body, nil, false) }

// DecodeInto is Decode into dst's backing array when the frame's records fit
// its capacity — dst[:n] is overwritten whole and returned, the caller owns
// it — and into the decoder's slab when they do not. The trace store's scan
// decodes a chain's frames straight into the chain's slot of one slab with
// it.
func (d *FrameDecoder) DecodeInto(body []byte, dst []Record) ([]Record, error) {
	return d.decode(body, dst, false)
}

// DecodeIndex is Decode for an index that keeps a location per event and
// every link whole: it checks every bound Decode checks, fails wherever
// Decode fails and otherwise returns the same records, except that an event
// record comes back with its six identity strings and its Semantics empty —
// no string is interned or allocated for it. A frame that holds a link
// record decodes in full.
func (d *FrameDecoder) DecodeIndex(body []byte) ([]Record, error) { return d.decode(body, nil, true) }

// errLinkInIndex stops an index decode at a link record: the frame is
// decoded again in full.
var errLinkInIndex = errors.New("link record in an index decode")

func (d *FrameDecoder) decode(body []byte, dst []Record, index bool) ([]Record, error) {
	dec := cdr.NewDecoder(body)
	nstr := dec.Uint32()
	if int64(nstr) > int64(dec.Remaining()/minStringSize) {
		return nil, fmt.Errorf("probe: decode frame: string table of %d entries in %d bytes", nstr, dec.Remaining())
	}
	table := d.table[:0]
	for i := uint32(0); i < nstr && dec.Err() == nil; i++ {
		if b := dec.BytesNoCopy(); !index {
			table = append(table, d.intern(b))
		}
	}
	recs, err := decodeRecords(dec, table, nstr, dst, d.slab, index)
	if err == errLinkInIndex {
		return d.decode(body, dst, false)
	}
	// Keep the scratch, not the strings: a frame's one-off identities must
	// not stay reachable from an idle connection.
	clear(table)
	d.table = nil
	if cap(table) <= maxTableScratch {
		d.table = table[:0]
	}
	// The slab does keep its frame's strings until the next frame overwrites
	// them — one frame's worth per live connection, let go at disconnect. A
	// frame too large to keep decodes into a slab of its own; a frame
	// decoded into the caller's dst leaves the slab as it was.
	if len(recs) > cap(dst) && cap(recs) > cap(d.slab) && cap(recs) <= maxSlabRecords {
		d.slab = recs[:0]
	}
	if err != nil {
		return nil, fmt.Errorf("probe: decode frame: %w", err)
	}
	return recs, nil
}

// decodeRecords parses the record section against a table of ntable
// entries, into dst when the frame fits it, else into slab when it fits
// that. Every slot it returns is written whole, so nothing of the frame the
// slab held before shows through. An index decode resolves no string of an
// event record, and a link record stops it with errLinkInIndex.
func decodeRecords(dec *cdr.Decoder, table []string, ntable uint32, dst, slab []Record, index bool) ([]Record, error) {
	nrec := dec.Uint32()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if int64(nrec) > int64(dec.Remaining()/minRecordSize) {
		return nil, fmt.Errorf("%d records in %d bytes", nrec, dec.Remaining())
	}
	var recs []Record
	switch {
	case int(nrec) <= cap(dst):
		recs = dst[:nrec]
	case int(nrec) <= cap(slab):
		recs = slab[:nrec]
	default:
		recs = make([]Record, nrec)
	}
	for i := range recs {
		r := &recs[i]
		*r = Record{Kind: RecordKind(dec.Octet())}
		if index && r.Kind == KindLink {
			return nil, errLinkInIndex
		}
		flags := dec.Octet()
		r.Event = ftl.Event(dec.Octet())
		var ids [identityStrings]string
		for j := range ids {
			idx := dec.Uint32()
			if idx >= ntable {
				if err := dec.Err(); err != nil {
					return nil, fmt.Errorf("record %d: %w", i, err)
				}
				return nil, fmt.Errorf("record %d: string index %d outside table of %d", i, idx, ntable)
			}
			if !index {
				ids[j] = table[idx]
			}
		}
		r.Process, r.ProcType = ids[0], ids[1]
		r.Op = OpID{Component: ids[2], Interface: ids[3], Operation: ids[4], Object: ids[5]}
		r.Thread = dec.Uint64()
		if index {
			dec.BytesNoCopy()
		} else {
			r.Semantics = dec.String()
		}
		if flags&wireHasEvent != 0 {
			copy(r.Chain[:], dec.Raw(uuid.Size))
			r.Seq = dec.Uint64()
			r.WallStart = getTime(dec)
			r.WallEnd = getTime(dec)
			r.CPUStart = time.Duration(dec.Int64())
			r.CPUEnd = time.Duration(dec.Int64())
		}
		if flags&wireHasLink != 0 {
			copy(r.LinkParent[:], dec.Raw(uuid.Size))
			r.LinkParentSeq = dec.Uint64()
			copy(r.LinkChild[:], dec.Raw(uuid.Size))
		}
		if err := dec.Err(); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		if r.Kind != KindEvent && r.Kind != KindLink {
			return nil, fmt.Errorf("record %d: kind %d", i, r.Kind)
		}
		if flags&^wireKnown != 0 {
			return nil, fmt.Errorf("record %d: flags %#x", i, flags)
		}
		r.Oneway, r.Collocated = flags&wireOneway != 0, flags&wireCollocated != 0
		r.LatencyArmed, r.CPUArmed = flags&wireLatencyArmed != 0, flags&wireCPUArmed != 0
	}
	return recs, dec.Finish()
}
