package probe

import (
	"fmt"
	"time"

	"causeway/internal/cdr"
	"causeway/internal/ftl"
	"causeway/internal/uuid"
)

// refDecode is the frame decoder as it was before the record blocks were
// read at fixed offsets: every field through its own bounds-checked
// cdr.Decoder read, no intern map, no slab. FuzzDecodeBatch holds the
// production decoder to it — the same records, or an error from both.
func refDecode(body []byte) ([]Record, error) {
	dec := cdr.NewDecoder(body)
	nstr := dec.Uint32()
	if int64(nstr) > int64(dec.Remaining()/minStringSize) {
		return nil, fmt.Errorf("string table of %d entries in %d bytes", nstr, dec.Remaining())
	}
	var table []string
	for i := uint32(0); i < nstr && dec.Err() == nil; i++ {
		table = append(table, string(dec.BytesNoCopy()))
	}
	return refDecodeRecords(dec, table, nstr)
}

func refDecodeRecords(dec *cdr.Decoder, table []string, ntable uint32) ([]Record, error) {
	nrec := dec.Uint32()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if int64(nrec) > int64(dec.Remaining()/minRecordSize) {
		return nil, fmt.Errorf("%d records in %d bytes", nrec, dec.Remaining())
	}
	recs := make([]Record, nrec)
	for i := range recs {
		r := &recs[i]
		*r = Record{Kind: RecordKind(dec.Octet())}
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
			ids[j] = table[idx]
		}
		r.Process, r.ProcType = ids[0], ids[1]
		r.Op = OpID{Component: ids[2], Interface: ids[3], Operation: ids[4], Object: ids[5]}
		r.Thread = dec.Uint64()
		r.Semantics = dec.String()
		if flags&wireHasEvent != 0 {
			copy(r.Chain[:], dec.Raw(uuid.Size))
			r.Seq = dec.Uint64()
			r.WallStart = refTime(dec)
			r.WallEnd = refTime(dec)
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
	if err := dec.Finish(); err != nil {
		return nil, err
	}
	return recs, nil
}

func refTime(d *cdr.Decoder) time.Time {
	if v := d.Int64(); v != wireTimeNone {
		return time.Unix(0, v)
	}
	return time.Time{}
}
