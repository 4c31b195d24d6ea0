package cdr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"testing"
)

// cdrOps are the Decoder's typed reads an op byte selects (op % len), each
// with the Encoder write that puts back what it read. An op byte's high
// nibble is Raw's length.
var cdrOps = []struct {
	name string
	read func(d *Decoder, op byte) any
	put  func(e *Encoder, v any)
}{
	{"Bool", func(d *Decoder, _ byte) any { return d.Bool() }, nil}, // any non-zero octet reads true: put back raw
	{"Octet", func(d *Decoder, _ byte) any { return d.Octet() }, func(e *Encoder, v any) { e.PutOctet(v.(byte)) }},
	{"Int16", func(d *Decoder, _ byte) any { return d.Int16() }, func(e *Encoder, v any) { e.PutInt16(v.(int16)) }},
	{"Uint16", func(d *Decoder, _ byte) any { return d.Uint16() }, func(e *Encoder, v any) { e.PutUint16(v.(uint16)) }},
	{"Int32", func(d *Decoder, _ byte) any { return d.Int32() }, func(e *Encoder, v any) { e.PutInt32(v.(int32)) }},
	{"Uint32", func(d *Decoder, _ byte) any { return d.Uint32() }, func(e *Encoder, v any) { e.PutUint32(v.(uint32)) }},
	{"Int64", func(d *Decoder, _ byte) any { return d.Int64() }, func(e *Encoder, v any) { e.PutInt64(v.(int64)) }},
	{"Uint64", func(d *Decoder, _ byte) any { return d.Uint64() }, func(e *Encoder, v any) { e.PutUint64(v.(uint64)) }},
	{"Float32", func(d *Decoder, _ byte) any { return d.Float32() }, func(e *Encoder, v any) { e.PutFloat32(v.(float32)) }},
	{"Float64", func(d *Decoder, _ byte) any { return d.Float64() }, func(e *Encoder, v any) { e.PutFloat64(v.(float64)) }},
	{"String", func(d *Decoder, _ byte) any { return d.String() }, func(e *Encoder, v any) { e.PutString(v.(string)) }},
	{"Bytes", func(d *Decoder, _ byte) any { return d.Bytes() }, func(e *Encoder, v any) { e.PutBytes(v.([]byte)) }},
	{"BytesNoCopy", func(d *Decoder, _ byte) any { return d.BytesNoCopy() }, func(e *Encoder, v any) { e.PutBytes(v.([]byte)) }},
	{"SeqLen", func(d *Decoder, _ byte) any { return d.SeqLen() }, func(e *Encoder, v any) { e.PutSeqLen(v.(int)) }},
	{"Raw", func(d *Decoder, op byte) any { return d.Raw(int(op >> 4)) }, func(e *Encoder, v any) { e.PutRaw(v.([]byte)) }},
	{"View", func(d *Decoder, _ byte) any { return d.View() }, func(*Encoder, any) {}},
}

// opOf is the op byte that selects name, with Raw's length n.
func opOf(name string, n byte) byte {
	for i, op := range cdrOps {
		if op.name == name {
			return byte(i) | n<<4
		}
	}
	panic(name)
}

// zeroRead reports whether v is what a read returns once an error has
// stuck: the zero value, a nil slice, an empty string.
func zeroRead(v any) bool {
	switch v := v.(type) {
	case []byte:
		return v == nil
	default:
		return reflect.ValueOf(v).IsZero()
	}
}

// cdrSeeds are FuzzCDRDecode's checked-in seeds: every read over the
// bytes an encoder wrote, and each length field lying about what follows.
func cdrSeeds() map[string][2][]byte {
	var e Encoder
	e.PutBool(true)
	e.PutOctet(7)
	e.PutInt16(-2)
	e.PutUint16(65000)
	e.PutInt32(-3)
	e.PutUint32(4_000_000_000)
	e.PutInt64(-5)
	e.PutUint64(1 << 63)
	e.PutFloat32(1.5)
	e.PutFloat64(-2.25)
	e.PutString("spooler")
	e.PutBytes([]byte{1, 2, 3})
	e.PutBytes([]byte("no copy"))
	e.PutSeqLen(2)
	e.PutRaw([]byte("ftl"))
	every := make([]byte, 0, len(cdrOps))
	for i, op := range cdrOps {
		if op.name == "Raw" {
			every = append(every, byte(i)|3<<4)
			continue
		}
		every = append(every, byte(i))
	}
	le := binary.LittleEndian
	claim := func(n uint32, behind int) []byte { return append(le.AppendUint32(nil, n), make([]byte, behind)...) }
	return map[string][2][]byte{
		"every-read":          {every, e.Bytes()},
		"string-past-end":     {{opOf("String", 0)}, claim(1<<30, 3)},
		"bytes-4GiB":          {{opOf("Bytes", 0)}, claim(1<<32-1, 10)},
		"bytes-no-copy-60MiB": {{opOf("BytesNoCopy", 0)}, claim(60<<20, 10)},
		"seq-past-end":        {{opOf("SeqLen", 0), opOf("Octet", 0)}, claim(1000, 10)},
		"short-uint64":        {{opOf("Uint64", 0)}, make([]byte, 5)},
		"raw-past-end":        {{opOf("Raw", 10)}, make([]byte, 4)},
		"trailing-bytes":      {{opOf("Uint32", 0)}, make([]byte, 6)},
		"reads-after-error":   {{opOf("Uint64", 0), opOf("String", 0), opOf("Octet", 0), opOf("Bytes", 0)}, make([]byte, 3)},
	}
}

// The seeds are what their names say — an error exactly where a length
// lies — and are checked in under testdata/fuzz/FuzzCDRDecode.
// UPDATE_FUZZ_CORPUS=1 rewrites them after a change.
func TestCDRFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCDRDecode")
	for name, seed := range cdrSeeds() {
		err := runOps(t, seed[0], seed[1])
		if wantErr := name != "every-read" && name != "trailing-bytes"; (err != nil) != wantErr {
			t.Errorf("%s: error %v, want one %v", name, err, wantErr)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", seed[0], seed[1])
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || string(have) != body {
			t.Errorf("fuzz seed %s is missing or stale (%v); rerun with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// runOps decodes body with the reads ops select and checks each: it
// consumes only bytes that are there, returns no string or octet sequence
// longer than the bytes behind its length, and once an error has stuck it
// consumes nothing and returns zero values. Without an error the encoder
// puts back exactly the bytes read, and Finish errs on trailing bytes. It
// returns the decoder's error.
func runOps(t *testing.T, ops, body []byte) error {
	t.Helper()
	d := NewDecoder(body)
	var e Encoder
	for i, op := range ops {
		spec := cdrOps[int(op)%len(cdrOps)]
		before, stuck, rest := d.Remaining(), d.Err(), d.View()
		v := spec.read(d, op)
		consumed := before - d.Remaining()
		if consumed < 0 || consumed > before {
			t.Fatalf("op %d %s: consumed %d of %d bytes", i, spec.name, consumed, before)
		}
		switch v := v.(type) {
		case string:
			if len(v) > before {
				t.Fatalf("op %d %s: %d bytes out of %d", i, spec.name, len(v), before)
			}
		case []byte:
			if len(v) > before {
				t.Fatalf("op %d %s: %d bytes out of %d", i, spec.name, len(v), before)
			}
		case int:
			if v > d.Remaining() {
				t.Fatalf("op %d %s: a sequence of %d with %d bytes left", i, spec.name, v, d.Remaining())
			}
		}
		if stuck != nil {
			if d.Err() != stuck || consumed != 0 || spec.name != "View" && !zeroRead(v) {
				t.Fatalf("op %d %s after %v: err %v, consumed %d, value %v", i, spec.name, stuck, d.Err(), consumed, v)
			}
			continue
		}
		if d.Err() != nil {
			continue
		}
		if spec.put == nil {
			if v.(bool) != (rest[0] != 0) {
				t.Fatalf("op %d Bool: %v from octet %d", i, v, rest[0])
			}
			e.PutRaw(rest[:1])
			continue
		}
		spec.put(&e, v)
	}
	if d.Err() != nil {
		if d.Finish() != d.Err() {
			t.Fatalf("Finish %v, the decoder's error %v", d.Finish(), d.Err())
		}
		return d.Err()
	}
	read := body[:len(body)-d.Remaining()]
	if !bytes.Equal(e.Bytes(), read) {
		t.Fatalf("re-encoded %x, read %x", e.Bytes(), read)
	}
	if err := d.Finish(); (err != nil) != (d.Remaining() > 0) {
		t.Fatalf("Finish %v with %d bytes left", err, d.Remaining())
	}
	return nil
}

// FuzzCDRDecode: a typed op sequence over arbitrary bytes, the decoder the
// probe frame codec and the transport are built on. An error or a value,
// never a panic, and never an allocation sized by a length field before its
// bytes are present: what one run allocates is bounded by the bytes it was
// given, whatever their length fields claim. Seeds are checked in under
// testdata/fuzz/FuzzCDRDecode (TestCDRFuzzSeeds).
func FuzzCDRDecode(f *testing.F) {
	seed := cdrSeeds()["every-read"]
	f.Add(seed[0], seed[1])
	// The heap's allocation counter, read without stopping the world. It
	// counts a small object when its span is handed out, so it lags by at
	// most a few spans; a large object counts at once.
	allocated := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, ops, body []byte) {
		before := allocated()
		runOps(t, ops, body)
		// The values read, their boxes and the encoder that puts them back,
		// and the counter's lag.
		bound := 256<<10 + 4*len(body) + 64*len(ops)
		if n := allocated() - before; n > uint64(bound) {
			t.Fatalf("%d ops over %d bytes allocated %d bytes", len(ops), len(body), n)
		}
	})
}
