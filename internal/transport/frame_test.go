package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// framed is payload behind a length header claiming claim bytes.
func framed(claim uint32, payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, claim), payload...)
}

// A length field is a claim, not a budget: a frame's buffer grows with the
// bytes that arrive, so a header announcing 60 MiB with ten bytes behind it
// fails having allocated almost nothing, and one past the limit fails
// before reading on.
func TestReadFrameHostileLength(t *testing.T) {
	cases := []struct {
		name  string
		input []byte
		want  error  // matched with errors.Is when set
		msg   string // contained in the error otherwise
	}{
		{"60 MiB claimed, 10 bytes sent", framed(60<<20, make([]byte, 10)), io.ErrUnexpectedEOF, ""},
		{"over the limit", framed(maxFrame+1, make([]byte, 10)), nil, "exceeds limit"},
		{"torn mid-frame", framed(100, make([]byte, 50)), io.ErrUnexpectedEOF, ""},
		{"torn mid-header", []byte{1, 0}, io.ErrUnexpectedEOF, ""},
		{"no body at all", framed(100, nil), io.EOF, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := readFrameInto(bytes.NewReader(tc.input), nil)
			runtime.ReadMemStats(&after)
			switch {
			case err == nil:
				t.Fatal("hostile frame read without error")
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("error %v, want %v", err, tc.want)
			case tc.want == nil && !strings.Contains(err.Error(), tc.msg):
				t.Fatalf("error %v, want one mentioning %q", err, tc.msg)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("allocated %d bytes for a frame that never arrived", grew)
			}
		})
	}
}

// A connection's read buffer is reused frame after frame: once it has held
// the largest frame, reading costs no allocation.
func TestReadFrameReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 64; i++ {
		stream.Write(framed(uint32(100+i), make([]byte, 100+i)))
	}
	input := stream.Bytes()
	buf, err := readFrameInto(bytes.NewReader(framed(4096, make([]byte, 4096))), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(input)
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(input)
		for {
			frame, err := readFrameInto(r, buf)
			if err != nil {
				break
			}
			buf = frame[:0]
		}
	})
	if allocs != 0 {
		t.Fatalf("reading 64 frames into a warm buffer cost %v allocations, want 0", allocs)
	}
}

// checkDecodeFrame is the fuzz property over one frame payload: decoding
// returns a value or an error, never panics, and a value survives being
// encoded and decoded again.
func checkDecodeFrame(t *testing.T, data []byte) {
	fr := &frameReader{buf: data}
	kind, err := fr.u8()
	if err != nil {
		return
	}
	if kind == frameRequest {
		req, err := decodeRequest(fr, make(map[string]string))
		if err != nil {
			return
		}
		again := &frameReader{buf: encodeRequest(req), off: 1}
		if back, err := decodeRequest(again, nil); err != nil || fmt.Sprint(back) != fmt.Sprint(req) {
			t.Fatalf("request %+v comes back as %+v, %v", req, back, err)
		}
		return
	}
	rep, err := DecodeReplyFrame(data)
	if err != nil {
		return
	}
	if enc := EncodeReplyFrame(rep); !bytes.HasPrefix(data, enc) {
		t.Fatalf("reply %+v re-encodes to %x, decoded from %x", rep, enc, data)
	}
}

// decodeFrameSeeds spells one payload per shape the decoders tell apart.
func decodeFrameSeeds() map[string][]byte {
	req := encodeRequest(Request{ID: 7, ObjectKey: "svc", Operation: "Echo", Body: []byte("hello")})
	rep := encodeReply(Reply{ID: 7, Status: StatusOK, Body: []byte("hello")})
	hostile := append(req[:len(req)-9:len(req)-9], 0xff, 0xff, 0xff, 0xff)
	return map[string][]byte{
		"request":           req,
		"request-oneway":    encodeRequest(Request{ID: 8, Oneway: true, ObjectKey: "svc", Operation: "Fire"}),
		"request-torn":      req[:len(req)-3],
		"request-huge-body": hostile,
		"reply":             rep,
		"reply-exception":   encodeReply(Reply{ID: 9, Status: StatusUserException, Body: []byte("boom")}),
		"reply-id-zero":     encodeReply(Reply{Status: StatusOK}),
		"reply-torn":        rep[:5],
		"unknown-kind":      {0x7f, 1, 2, 3},
		"empty":             {},
	}
}

// The seeds are checked in under testdata/fuzz/FuzzDecodeFrame, so plain
// `go test` replays them; UPDATE_FUZZ_CORPUS=1 rewrites them after the
// frame layout changes.
func TestDecodeFrameFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	for name, data := range decodeFrameSeeds() {
		checkDecodeFrame(t, data)
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

// FuzzDecodeFrame: any request or reply frame payload, however damaged,
// decodes to a value or an error — never a panic — and a value survives
// being encoded and decoded again.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(checkDecodeFrame)
}

// countingConn counts the Read calls made on a connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// Both connection loops read through a buffer: N small frames, each
// written in one piece, cost at most N+1 reads (the last one sees the
// close), where reading header and body straight off the socket costs 2N.
func TestConnLoopsReadSmallFrameOnce(t *testing.T) {
	const frames = 64
	t.Run("server", func(t *testing.T) {
		near, far := net.Pipe()
		conn := &countingConn{Conn: near}
		var handled atomic.Int64
		s := &TCPServer{conns: make(map[net.Conn]struct{})}
		s.handler = func(ConnID, Request, Responder) { handled.Add(1) }
		s.wg.Add(1)
		go s.connLoop(conn, 1)
		for i := 0; i < frames; i++ {
			frame := appendRequestFrame(nil, Request{ID: uint64(i + 1), Oneway: true, ObjectKey: "k", Operation: "op", Body: []byte("small")})
			if _, err := far.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
		far.Close()
		s.wg.Wait()
		if handled.Load() != frames {
			t.Fatalf("handled %d of %d requests", handled.Load(), frames)
		}
		if n := conn.reads.Load(); n > frames+1 {
			t.Fatalf("%d requests took %d reads, want at most %d", frames, n, frames+1)
		}
	})
	t.Run("client", func(t *testing.T) {
		near, far := net.Pipe()
		conn := &countingConn{Conn: near}
		c := &TCPClient{conn: conn, pending: make(map[uint64]chan Reply), done: make(chan struct{})}
		go c.readLoop()
		for i := 0; i < frames; i++ {
			frame := appendReplyFrame(nil, Reply{ID: uint64(i + 1), Status: StatusOK, Body: []byte("small")})
			if _, err := far.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
		far.Close()
		<-c.done
		if c.Discarded() != frames {
			t.Fatalf("read %d of %d replies", c.Discarded(), frames)
		}
		if n := conn.reads.Load(); n > frames+1 {
			t.Fatalf("%d replies took %d reads, want at most %d", frames, n, frames+1)
		}
	})
}
