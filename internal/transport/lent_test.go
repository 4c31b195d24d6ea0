package transport

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"
)

// within reports whether b lies inside buf's backing array.
func within(b, buf []byte) bool {
	if len(b) == 0 {
		return true
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= start && p+uintptr(len(b)) <= start+uintptr(cap(buf))
}

// A lent body is a view of the connection's read buffer. Reading and
// decoding requests on a warm connection allocates nothing, and over a live
// connection a ServeLent handler sees every body of one size at the same
// address: the buffer the connection reads into.
func TestServeLentBodyAliasesReadBuffer(t *testing.T) {
	const frames, size = 32, 120
	var stream bytes.Buffer
	for i := 0; i < frames; i++ {
		body := bytes.Repeat([]byte{byte(i)}, size)
		stream.Write(appendRequestFrame(nil, Request{ID: uint64(i + 1), ObjectKey: "telemetry", Operation: "ship", Body: body}))
	}
	input := stream.Bytes()
	r := bytes.NewReader(input)
	buf := make([]byte, 0, 512)
	interned := make(map[string]string)
	decodeAll := func() {
		r.Reset(input)
		for i := 0; ; i++ {
			frame, err := readFrameInto(r, buf)
			if err != nil {
				return
			}
			buf = frame[:0]
			fr := &frameReader{buf: frame}
			if _, err := fr.u8(); err != nil {
				t.Fatal(err)
			}
			req, err := decodeRequest(fr, interned)
			if err != nil {
				t.Fatal(err)
			}
			if len(req.Body) != size || req.Body[0] != byte(i) || !within(req.Body, frame) {
				t.Fatalf("frame %d: body of %d bytes is not a view of the read buffer", i, len(req.Body))
			}
		}
	}
	decodeAll()
	if a := testing.AllocsPerRun(10, decodeAll); a != 0 {
		t.Fatalf("decoding %d requests on a warm connection allocates %v, want 0", frames, a)
	}

	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	var seen []*byte
	if err := srv.ServeLent(func(_ ConnID, req Request, respond Responder) {
		mu.Lock()
		seen = append(seen, unsafe.SliceData(req.Body))
		mu.Unlock()
		respond(Reply{Status: StatusOK})
	}); err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < frames; i++ {
		if _, err := c.Call(Request{ObjectKey: "telemetry", Operation: "ship", Body: bytes.Repeat([]byte{byte(i)}, size)}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, p := range seen {
		if p != seen[0] {
			t.Fatalf("request %d's body is not where request 0's was: the handler got a copy, not the read buffer", i)
		}
	}
}

// Serve's handler owns its body: one kept from the first request is intact
// after a hundred later requests of other content have passed through the
// connection's read buffer.
func TestServeCopiedBodyOutlivesLaterFrames(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	var kept []byte
	if err := srv.Serve(func(_ ConnID, req Request, respond Responder) {
		mu.Lock()
		if req.Operation == "keep" {
			kept = req.Body
		}
		mu.Unlock()
		if !req.Oneway {
			respond(Reply{Status: StatusOK})
		}
	}); err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := bytes.Repeat([]byte("kept body "), 12)
	if _, err := c.Call(Request{ObjectKey: "k", Operation: "keep", Body: first}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Post(Request{ObjectKey: "k", Operation: "other", Body: bytes.Repeat([]byte{byte(i)}, len(first))}); err != nil {
			t.Fatal(err)
		}
	}
	// A connection's requests are handled in order: once this one is
	// answered, the hundred before it have passed through the buffer.
	if _, err := c.Call(Request{ObjectKey: "k", Operation: "sync"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(kept, first) {
		t.Fatalf("kept body changed under later frames: %q", kept)
	}
}
