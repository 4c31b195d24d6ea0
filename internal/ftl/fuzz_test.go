package ftl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"causeway/internal/uuid"
)

// ftlSeeds are FuzzFTLDecode's checked-in seeds: the wire forms a probe
// writes — alone, and ahead of the request body it rides in front of — and
// every way a buffer can come up short.
func ftlSeeds() map[string][]byte {
	f := FTL{Chain: uuid.UUID{0xca, 0xfe, 15: 0x01}, Seq: 4097, Flags: FlagDropped}
	wire := f.Encode(nil)
	return map[string][]byte{
		"valid":           wire,
		"valid-then-body": append(FTL{Chain: uuid.UUID{1}, Seq: 1}.Encode(nil), "\x00\x00\x00\x07payload"...),
		"max-seq":         FTL{Seq: 1<<64 - 1, Flags: 0xff}.Encode(nil),
		"empty":           {},
		"one-short":       wire[:WireSize-1],
		"chain-only":      wire[:uuid.Size],
	}
}

// The seeds decode as their names say and are checked in under
// testdata/fuzz/FuzzFTLDecode. UPDATE_FUZZ_CORPUS=1 rewrites them after a
// change.
func TestFTLFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFTLDecode")
	for name, seed := range ftlSeeds() {
		_, _, err := checkDecode(t, seed)
		if wantErr := len(seed) < WireSize; (err != nil) != wantErr {
			t.Errorf("%s: error %v, want one %v", name, err, wantErr)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
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

// checkDecode decodes src and checks the result: on an error, a zero FTL
// and src handed back whole; otherwise the rest is src behind the FTL's
// WireSize bytes, and the FTL encodes back to exactly those bytes.
func checkDecode(t *testing.T, src []byte) (FTL, []byte, error) {
	t.Helper()
	f, rest, err := Decode(src)
	if err != nil {
		if f != (FTL{}) || len(rest) != len(src) || len(src) >= WireSize {
			t.Fatalf("Decode(%x): error %v with %v and %d of %d bytes left", src, err, f, len(rest), len(src))
		}
		return f, rest, err
	}
	if len(src) < WireSize || len(rest) != len(src)-WireSize || !bytes.Equal(rest, src[WireSize:]) {
		t.Fatalf("Decode(%x): %d bytes left, want the %d behind the FTL", src, len(rest), len(src)-WireSize)
	}
	if again := f.Encode(nil); !bytes.Equal(again, src[:WireSize]) {
		t.Fatalf("Decode(%x) = %v, which encodes to %x", src, f, again)
	}
	return f, rest, nil
}

// FuzzFTLDecode: the FTL a request carries in front of its body, decoded
// from arbitrary bytes. An error or a value, never a panic; a decoded FTL
// re-encodes to the input's prefix. The wire form has no length field, so
// nothing is sized by one: a decode allocates nothing but an error's
// message (TestFTLDecodeAllocFree). Seeds are checked in under
// testdata/fuzz/FuzzFTLDecode (TestFTLFuzzSeeds).
func FuzzFTLDecode(f *testing.F) {
	for _, seed := range ftlSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src []byte) { checkDecode(t, src) })
}

func TestFTLDecodeAllocFree(t *testing.T) {
	wire := ftlSeeds()["valid-then-body"]
	if n := testing.AllocsPerRun(100, func() { Decode(wire) }); n != 0 {
		t.Fatalf("Decode allocated %v times", n)
	}
}
