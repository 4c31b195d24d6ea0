package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// controlDecoders are the six control-message decoders a collector or a
// shipper runs over bytes any peer sent. One fuzz input is a message: its
// first byte picks the decoder (modulo six), the rest is the body.
var controlDecoders = []struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
	ring   bool // the message carries a ring, whose member count is a length field
}{
	{"hello", func(b []byte) (any, error) { return decodeHello(b) }, func(v any) []byte { return encodeHello(v.(Hello)) }, false},
	{"hello reply", func(b []byte) (any, error) { return decodeHelloReply(b) }, func(v any) []byte { return encodeHelloReply(v.(HelloReply)) }, true},
	{"ring", func(b []byte) (any, error) { return decodeRing(b) }, func(v any) []byte { return encodeRing(v.(Ring)) }, true},
	{"stats", func(b []byte) (any, error) { return decodeFinal(b) }, func(v any) []byte { return encodeFinal(v.(ShipperFinal)) }, false},
	{"rate", func(b []byte) (any, error) { return decodeRate(b) }, func(v any) []byte { return encodeRate(v.(float64)) }, false},
	{"count", func(b []byte) (any, error) { return decodeCount(b) }, func(v any) []byte { return encodeCount(v.(uint64)) }, false},
}

// checkControlDecode: the message decodes to an error or a value, never a
// panic; a value, re-encoded and decoded again, gives itself; and a ring's
// member count, however forged, allocates nothing beyond what the bytes
// behind it could hold.
func checkControlDecode(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	m := controlDecoders[int(data[0])%len(controlDecoders)]
	body := data[1:]
	var before, after runtime.MemStats
	if m.ring {
		runtime.ReadMemStats(&before)
	}
	v, err := m.decode(body)
	if m.ring {
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+16*uint64(len(body)) {
			t.Fatalf("%s of %d bytes allocated %d bytes", m.name, len(body), grew)
		}
	}
	if err != nil {
		return
	}
	again, err := m.decode(m.encode(v))
	same := reflect.DeepEqual(again, v)
	if r, ok := v.(float64); ok && err == nil {
		same = math.Float64bits(again.(float64)) == math.Float64bits(r) // NaN is itself too
	}
	if err != nil || !same {
		t.Fatalf("%s %+v re-encoded decodes as %+v, %v", m.name, v, again, err)
	}
}

// controlSeeds spells one input per message, valid, and the hostile shapes:
// a ring forging its member count, a body cut short, a byte too many, and a
// handshake from another protocol version.
func controlSeeds() map[string][]byte {
	msg := func(kind byte, body []byte) []byte { return append([]byte{kind}, body...) }
	ring := testRing(7, "a:1", "b:2", "c:3")
	forged := make([]byte, 40) // epoch, slots, a member count of 2^32-1, and 24 bytes behind it
	binary.LittleEndian.PutUint32(forged[12:], 1<<32-1)
	hello := encodeHello(Hello{Version: ProtocolVersion, Process: "p1", ProcType: "x86", DebugAddr: "127.0.0.1:6060"})
	return map[string][]byte{
		"hello":              msg(0, hello),
		"hello-old-version":  msg(0, append([]byte{ProtocolVersion - 1}, hello[1:]...)),
		"hello-cut":          msg(0, hello[:len(hello)-3]),
		"hello-reply":        msg(1, encodeHelloReply(HelloReply{Version: ProtocolVersion, HasRing: true, Ring: ring})),
		"hello-reply-bare":   msg(1, encodeHelloReply(HelloReply{Version: ProtocolVersion})),
		"hello-reply-forged": msg(1, append([]byte{ProtocolVersion, 1}, forged...)),
		"ring":               msg(2, encodeRing(ring)),
		"ring-forged-count":  msg(2, forged),
		"ring-trailing-byte": msg(2, append(encodeRing(ring), 0)),
		"stats":              msg(3, encodeFinal(ShipperFinal{Appended: 10, Dropped: 3, Shipped: 7})),
		"rate":               msg(4, encodeRate(0.125)),
		"rate-nan":           msg(4, encodeRate(math.NaN())),
		"count":              msg(5, encodeCount(1<<40)),
		"count-cut":          msg(5, encodeCount(7)[:5]),
	}
}

// The seeds are checked in under testdata/fuzz/FuzzControlDecode, so plain
// `go test` replays them; UPDATE_FUZZ_CORPUS=1 rewrites them after a
// message layout changes.
func TestControlDecodeFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzControlDecode")
	for name, data := range controlSeeds() {
		checkControlDecode(t, data)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || string(have) != want {
			t.Errorf("fuzz seed %s is missing or stale (%v); rerun with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// FuzzControlDecode holds every control decoder to checkControlDecode.
func FuzzControlDecode(f *testing.F) {
	f.Fuzz(checkControlDecode)
}
