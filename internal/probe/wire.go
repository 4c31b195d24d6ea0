package probe

import (
	"math"
	"time"

	"causeway/internal/cdr"
)

// Binary field conventions every cdr encoding of a Record shares — the
// trace store's segment payloads and the telemetry plane's ship frames.
// Each format owns its layout; these are the parts that must mean the same
// thing in both, kept here so they cannot drift apart.

// Flag bits of the record flags octet. Bits 4 and up are left to the
// individual formats.
const (
	WireOneway = 1 << iota
	WireCollocated
	WireLatencyArmed
	WireCPUArmed
)

// WireFlags packs r's four booleans into the flags octet.
func (r *Record) WireFlags() byte {
	var flags byte
	if r.Oneway {
		flags |= WireOneway
	}
	if r.Collocated {
		flags |= WireCollocated
	}
	if r.LatencyArmed {
		flags |= WireLatencyArmed
	}
	if r.CPUArmed {
		flags |= WireCPUArmed
	}
	return flags
}

// SetWireFlags unpacks a flags octet into r's four booleans.
func (r *Record) SetWireFlags(flags byte) {
	r.Oneway = flags&WireOneway != 0
	r.Collocated = flags&WireCollocated != 0
	r.LatencyArmed = flags&WireLatencyArmed != 0
	r.CPUArmed = flags&WireCPUArmed != 0
}

// wireTimeNone is the encoded sentinel for the zero time.Time (whose
// UnixNano is undefined).
const wireTimeNone = int64(math.MinInt64)

// PutWireTime encodes t as Unix nanoseconds, the zero time as a sentinel.
func PutWireTime(e *cdr.Encoder, t time.Time) {
	if t.IsZero() {
		e.PutInt64(wireTimeNone)
		return
	}
	e.PutInt64(t.UnixNano())
}

// GetWireTime decodes what PutWireTime wrote.
func GetWireTime(d *cdr.Decoder) time.Time {
	v := d.Int64()
	if v == wireTimeNone {
		return time.Time{}
	}
	return time.Unix(0, v)
}
