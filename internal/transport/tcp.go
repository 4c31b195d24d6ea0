package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"causeway/internal/gls"
	"causeway/internal/metrics"
)

// Frame layout: every message is a length-prefixed frame.
//
//	u32  frame length (excluding this prefix)
//	u8   frame kind (request | reply)
//	u64  request id
//	-- request --          -- reply --
//	u8   oneway            u8   status
//	str  object key        bytes body
//	str  operation
//	bytes body
//
// Strings and byte fields are u32-length-prefixed.
const (
	frameRequest byte = 1
	frameReply   byte = 2

	// maxFrame bounds a frame to keep a corrupt length prefix from
	// allocating unbounded memory.
	maxFrame = 64 << 20
)

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	return readFrameInto(r, nil)
}

// readFrameInto reads one frame, reusing buf's capacity when it suffices.
// The result aliases buf (or a replacement that should be kept for the next
// call); it is valid only until the next readFrameInto on the same buffer.
// Beyond buf's capacity the buffer grows with the bytes that arrive, at
// most doubling each time — never by what the length field claims — so a
// header announcing a huge frame with little behind it costs little.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into buf too: a local array would escape through
	// the io.Reader call, an allocation per frame.
	buf = slices.Grow(buf[:0], 4)
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(cap(buf), 512)))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		if buf = buf[:len(buf)+got]; err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// newConnReader buffers a connection's reads, so a small frame's header
// and body — and whatever frames arrived behind them — cost one read
// syscall, not two a frame. Frames are still copied out into the frame
// buffer, so what a lent body aliases is unchanged.
func newConnReader(conn net.Conn) *bufio.Reader { return bufio.NewReaderSize(conn, 4096) }

// maxPooledFrameCap clamps what the frame pool retains, so one huge message
// does not pin its buffer for the life of the process.
const maxPooledFrameCap = 64 << 10

// framePool recycles read/write frame buffers across connections. Within a
// connection the same buffer is reused call after call (the read loop and
// the write mutex each own one), so steady state does no pool traffic at
// all; the pool only matters when connections churn.
var framePool = sync.Pool{
	New: func() any {
		poolCounters.frameNews.Add(1)
		b := make([]byte, 0, 512)
		return &b
	},
}

// poolCounters observes the package's pools: gets vs news yields the hit
// rate (a "new" is a pool miss). Process-global because the pools are.
var poolCounters struct {
	frameGets, frameNews atomic.Uint64
	replyGets, replyNews atomic.Uint64
}

// PoolStats is a point-in-time snapshot of the pool counters.
type PoolStats struct {
	FrameGets, FrameMisses uint64 // frame buffer pool
	ReplyGets, ReplyMisses uint64 // reply channel pool
}

// ReadPoolStats snapshots the pool counters.
func ReadPoolStats() PoolStats {
	return PoolStats{
		FrameGets:   poolCounters.frameGets.Load(),
		FrameMisses: poolCounters.frameNews.Load(),
		ReplyGets:   poolCounters.replyGets.Load(),
		ReplyMisses: poolCounters.replyNews.Load(),
	}
}

// WritePoolMetrics renders the pool counters as exposition series — the
// source form metrics.Registry.RegisterSource consumes.
func WritePoolMetrics(w io.Writer) {
	st := ReadPoolStats()
	fmt.Fprintf(w, "causeway_pool_frame_gets_total %d\n", st.FrameGets)
	fmt.Fprintf(w, "causeway_pool_frame_misses_total %d\n", st.FrameMisses)
	fmt.Fprintf(w, "causeway_pool_reply_ch_gets_total %d\n", st.ReplyGets)
	fmt.Fprintf(w, "causeway_pool_reply_ch_misses_total %d\n", st.ReplyMisses)
}

func getFrameBuf() *[]byte {
	poolCounters.frameGets.Add(1)
	return framePool.Get().(*[]byte)
}

func putFrameBuf(p *[]byte) {
	if p == nil || cap(*p) > maxPooledFrameCap {
		return
	}
	*p = (*p)[:0]
	framePool.Put(p)
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

type frameReader struct {
	buf []byte
	off int
}

func (f *frameReader) u8() (byte, error) {
	if f.off+1 > len(f.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := f.buf[f.off]
	f.off++
	return v, nil
}

func (f *frameReader) u64() (uint64, error) {
	if f.off+8 > len(f.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint64(f.buf[f.off:])
	f.off += 8
	return v, nil
}

func (f *frameReader) bytes() ([]byte, error) {
	if f.off+4 > len(f.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(f.buf[f.off:])
	f.off += 4
	if f.off+int(n) > len(f.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	v := f.buf[f.off : f.off+int(n)]
	f.off += int(n)
	return v, nil
}

func (f *frameReader) str() (string, error) {
	b, err := f.bytes()
	return string(b), err
}

// internedStr is str deduplicated through m (nil m falls back to str).
// Interned strings are bounded by maxInternedStrings per table; past that
// the table stops growing and unseen strings are allocated normally, so a
// client sending adversarially unique operation names cannot exhaust
// memory.
func (f *frameReader) internedStr(m map[string]string) (string, error) {
	b, err := f.bytes()
	if err != nil {
		return "", err
	}
	if m == nil {
		return string(b), nil
	}
	if s, ok := m[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	if len(m) < maxInternedStrings {
		m[s] = s
	}
	return s, nil
}

// maxInternedStrings bounds a connection's intern table.
const maxInternedStrings = 1024

func encodeRequest(req Request) []byte {
	b := make([]byte, 0, 32+len(req.ObjectKey)+len(req.Operation)+len(req.Body))
	b = append(b, frameRequest)
	b = binary.LittleEndian.AppendUint64(b, req.ID)
	if req.Oneway {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendString(b, req.ObjectKey)
	b = appendString(b, req.Operation)
	b = appendBytes(b, req.Body)
	return b
}

func encodeReply(rep Reply) []byte {
	b := make([]byte, 0, 16+len(rep.Body))
	b = append(b, frameReply)
	b = binary.LittleEndian.AppendUint64(b, rep.ID)
	b = append(b, byte(rep.Status))
	b = appendBytes(b, rep.Body)
	return b
}

// appendRequestFrame assembles the length prefix and the request payload
// into one buffer, so the whole message goes to the kernel in a single
// Write — two small writes per call double the syscall count and, with
// Nagle disabled, can double the packet count too.
func appendRequestFrame(dst []byte, req Request) []byte {
	dst = append(dst, 0, 0, 0, 0)
	start := len(dst)
	dst = append(dst, frameRequest)
	dst = binary.LittleEndian.AppendUint64(dst, req.ID)
	if req.Oneway {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendString(dst, req.ObjectKey)
	dst = appendString(dst, req.Operation)
	dst = appendBytes(dst, req.Body)
	binary.LittleEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

// appendReplyFrame is appendRequestFrame for replies.
func appendReplyFrame(dst []byte, rep Reply) []byte {
	dst = append(dst, 0, 0, 0, 0)
	start := len(dst)
	dst = append(dst, frameReply)
	dst = binary.LittleEndian.AppendUint64(dst, rep.ID)
	dst = append(dst, byte(rep.Status))
	dst = appendBytes(dst, rep.Body)
	binary.LittleEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

// decodeRequest parses a request. interned, when non-nil, is a
// per-connection table that deduplicates ObjectKey/Operation strings: a
// connection invokes the same few operations over and over, and the
// m[string(b)] lookup form is recognized by the compiler as allocation-free,
// so after the first call of each kind no string is allocated per request.
// The body is a view of fr's buffer: the server copies it unless its handler
// borrows it (TCPServer.ServeLent).
func decodeRequest(fr *frameReader, interned map[string]string) (Request, error) {
	var req Request
	var err error
	if req.ID, err = fr.u64(); err != nil {
		return req, err
	}
	ow, err := fr.u8()
	if err != nil {
		return req, err
	}
	req.Oneway = ow != 0
	if req.ObjectKey, err = fr.internedStr(interned); err != nil {
		return req, err
	}
	if req.Operation, err = fr.internedStr(interned); err != nil {
		return req, err
	}
	req.Body, err = fr.bytes()
	return req, err
}

func decodeReply(fr *frameReader) (Reply, error) {
	var rep Reply
	var err error
	if rep.ID, err = fr.u64(); err != nil {
		return rep, err
	}
	st, err := fr.u8()
	if err != nil {
		return rep, err
	}
	rep.Status = Status(st)
	body, err := fr.bytes()
	if err != nil {
		return rep, err
	}
	rep.Body = append([]byte(nil), body...)
	return rep, nil
}

// DecodeReplyFrame parses a raw frame payload (as framed by writeFrame,
// without the length prefix) as a reply, validating it strictly: a frame
// whose length was plausible but whose payload is not a well-formed reply
// for a real request is rejected with a specific transport: error rather
// than a generic decode failure. Request IDs start at 1, so a reply
// claiming ID 0 can only come from corruption.
func DecodeReplyFrame(frame []byte) (Reply, error) {
	fr := &frameReader{buf: frame}
	kind, err := fr.u8()
	if err != nil {
		return Reply{}, errors.New("transport: empty frame")
	}
	if kind != frameReply {
		return Reply{}, fmt.Errorf("transport: unknown frame kind 0x%02x (want reply 0x%02x)", kind, frameReply)
	}
	rep, err := decodeReply(fr)
	if err != nil {
		return Reply{}, fmt.Errorf("transport: malformed reply frame: %v", err)
	}
	if rep.ID == 0 {
		return Reply{}, errors.New("transport: reply for request id 0 (request ids start at 1)")
	}
	return rep, nil
}

// EncodeReplyFrame renders rep as a frame payload, the inverse of
// DecodeReplyFrame. Exported for fault injectors and codec tests that need
// to synthesize wire bytes.
func EncodeReplyFrame(rep Reply) []byte { return encodeReply(rep) }

// TCPServer serves requests over TCP. One read goroutine per connection
// delivers requests to the handler; the handler's scheduling policy decides
// which goroutine executes the dispatch.
type TCPServer struct {
	ln      net.Listener
	mu      sync.Mutex
	handler Handler
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	nextID  atomic.Uint64
	net     *metrics.NetStats // nil when unmetered; set before Serve
	onDisc  func(ConnID)      // nil when nobody keeps per-connection state; set before Serve
	lent    bool              // ServeLent: the handler borrows req.Body for the call
}

var _ Server = (*TCPServer)(nil)

// ListenTCP binds addr ("127.0.0.1:0" for an ephemeral port).
func ListenTCP(addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &TCPServer{ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

// SetMetrics attaches wire-traffic counters. It must be called before
// Serve — connection loops read the field without synchronization.
func (s *TCPServer) SetMetrics(ns *metrics.NetStats) { s.net = ns }

// OnDisconnect registers fn to run on a connection's read goroutine once
// its last request has been handed to the handler — where a handler that
// keeps per-connection state lets go of it. It must be called before Serve.
func (s *TCPServer) OnDisconnect(fn func(ConnID)) { s.onDisc = fn }

// Serve implements Server; it starts the accept loop and returns. Each
// request's Body is the handler's own copy, which it may keep.
func (s *TCPServer) Serve(h Handler) error { return s.serve(h, false) }

// ServeLent is Serve for a handler that is done with req.Body when it
// returns: the body is lent from the connection's read buffer for the call
// and overwritten by the next request, so a request costs no copy of it.
// The connection reads its next request only after the handler returns.
func (s *TCPServer) ServeLent(h Handler) error { return s.serve(h, true) }

func (s *TCPServer) serve(h Handler, lent bool) error {
	s.mu.Lock()
	if s.handler != nil {
		s.mu.Unlock()
		return errors.New("transport: already serving")
	}
	s.handler, s.lent = h, lent
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr implements Server.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close implements Server: stops accepting, closes live connections, and
// waits for per-connection goroutines to finish.
func (s *TCPServer) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.connLoop(conn, ConnID(s.nextID.Add(1)))
	}
}

func (s *TCPServer) connLoop(conn net.Conn, id ConnID) {
	defer s.wg.Done()
	// The connection reader owns its goroutine for the connection's
	// lifetime: pre-register so any identity resolution on this goroutine
	// (oneway fast paths, inline delivery) is constant-time.
	gls.Register()
	defer gls.Unregister()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		if s.onDisc != nil {
			s.onDisc(id)
		}
	}()
	var writeMu sync.Mutex
	// One read buffer and one write buffer per connection, reused for every
	// message on the connection. The read buffer comes from the frame pool
	// and is safe to reuse across requests because the body is copied out,
	// or lent to a handler that has returned before the next read. The
	// write buffer is guarded by writeMu but deliberately NOT
	// pooled: respond closures can outlive connLoop (a dispatch may finish
	// after the connection died), so returning it at loop exit could hand a
	// buffer to the pool while a late responder still writes into it.
	readBuf := getFrameBuf()
	defer putFrameBuf(readBuf)
	rd := newConnReader(conn)
	var writeBuf []byte
	interned := make(map[string]string, 8)
	for {
		frame, err := readFrameInto(rd, *readBuf)
		if err != nil {
			return
		}
		if s.net != nil {
			s.net.FramesRecv.Add(1)
			s.net.BytesRecv.Add(uint64(len(frame)) + 4)
		}
		*readBuf = frame[:0]
		fr := &frameReader{buf: frame}
		kind, err := fr.u8()
		if err != nil || kind != frameRequest {
			return
		}
		req, err := decodeRequest(fr, interned)
		if err != nil {
			return
		}
		if !s.lent {
			req.Body = append([]byte(nil), req.Body...)
		}
		respond := Responder(func(Reply) {})
		if !req.Oneway {
			reqID := req.ID
			respond = func(rep Reply) {
				rep.ID = reqID
				writeMu.Lock()
				defer writeMu.Unlock()
				out := appendReplyFrame(writeBuf[:0], rep)
				if cap(out) <= maxPooledFrameCap {
					writeBuf = out[:0]
				}
				// A write error means the client went away; the reply is
				// undeliverable and dropping it is the only option.
				if s.net != nil {
					s.net.FramesSent.Add(1)
					s.net.BytesSent.Add(uint64(len(out)))
				}
				_, _ = conn.Write(out)
			}
		}
		s.mu.Lock()
		h := s.handler
		s.mu.Unlock()
		h(id, req, respond)
	}
}

// TCPClient multiplexes synchronous calls over one TCP connection.
//
// Lifecycle invariants (the Call/Close/readLoop interleaving audit):
//
//   - readLoop is the only goroutine that delivers replies; it removes the
//     pending entry under mu before sending on the (buffered, capacity-1)
//     channel, so a sender never blocks and at most one reply reaches a
//     given entry.
//   - Failure teardown (connection error, strict-decode error, Close) sets
//     readErr and closes every pending channel under the same mu that Call
//     uses to register, so a Call either observes readErr before
//     registering and fails fast, or registers first and is guaranteed to
//     be woken by the teardown's close. No interleaving strands a waiter.
//   - Call re-checks closed under mu at registration time: Close flips
//     closed before closing the socket, so without the re-check a Call
//     racing Close could register, win the writeFrame race against the
//     socket teardown, and only fail when readLoop collapses — correct but
//     noisy. The re-check turns that window into a clean ErrClosed.
type TCPClient struct {
	conn      net.Conn
	writeMu   sync.Mutex
	writeBuf  []byte // frame assembly buffer, guarded by writeMu
	mu        sync.Mutex
	pending   map[uint64]chan Reply
	nextID    atomic.Uint64
	closed    atomic.Bool
	discarded atomic.Uint64
	readErr   error
	done      chan struct{}
	net       *metrics.NetStats // nil when unmetered; fixed at dial
}

// replyChPool recycles the per-call reply channels. Only channels that are
// provably unreachable by any sender or teardown go back: a channel closed
// by failPending must never be pooled (a pooled closed channel would wake
// an unrelated future call with a phantom terminal error).
var replyChPool = sync.Pool{
	New: func() any {
		poolCounters.replyNews.Add(1)
		return make(chan Reply, 1)
	},
}

// getReplyCh is replyChPool.Get with the pool-hit accounting applied.
func getReplyCh() chan Reply {
	poolCounters.replyGets.Add(1)
	return replyChPool.Get().(chan Reply)
}

// writeRequestLocked assembles req into the client's reusable buffer and
// writes it as one frame in a single Write call.
func (c *TCPClient) writeRequest(req Request) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	out := appendRequestFrame(c.writeBuf[:0], req)
	if cap(out) <= maxPooledFrameCap {
		c.writeBuf = out[:0]
	}
	if c.net != nil {
		c.net.FramesSent.Add(1)
		c.net.BytesSent.Add(uint64(len(out)))
	}
	_, err := c.conn.Write(out)
	return err
}

var _ Client = (*TCPClient)(nil)

// DialTCP connects to a TCPServer.
func DialTCP(addr string) (*TCPClient, error) { return dialTCP(addr, 0, nil) }

// DialTCPTimeout is DialTCP with the connect bounded by timeout, so an
// unreachable host fails in that time rather than the system's.
func DialTCPTimeout(addr string, timeout time.Duration) (*TCPClient, error) {
	return dialTCP(addr, timeout, nil)
}

// DialTCPMetered is DialTCP with wire-traffic counters attached. The
// counters must be supplied at dial time: the read loop starts
// immediately and reads the field without synchronization.
func DialTCPMetered(addr string, ns *metrics.NetStats) (*TCPClient, error) {
	return dialTCP(addr, 0, ns)
}

// dialTCP connects, within timeout when it is positive.
func dialTCP(addr string, timeout time.Duration, ns *metrics.NetStats) (*TCPClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c := &TCPClient{
		conn:    conn,
		pending: make(map[uint64]chan Reply),
		done:    make(chan struct{}),
		net:     ns,
	}
	go c.readLoop()
	return c, nil
}

// failPending records err as the connection's terminal state and wakes
// every registered caller by closing its channel.
func (c *TCPClient) failPending(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

func (c *TCPClient) readLoop() {
	defer close(c.done)
	// Long-lived reply reader: register once at birth (see gls.Register).
	gls.Register()
	defer gls.Unregister()
	// One pooled buffer reused for every reply frame; DecodeReplyFrame
	// copies the body out, so the next read may overwrite it.
	readBuf := getFrameBuf()
	defer putFrameBuf(readBuf)
	rd := newConnReader(c.conn)
	for {
		frame, err := readFrameInto(rd, *readBuf)
		if err != nil {
			c.failPending(err)
			return
		}
		if c.net != nil {
			c.net.FramesRecv.Add(1)
			c.net.BytesRecv.Add(uint64(len(frame)) + 4)
		}
		*readBuf = frame[:0]
		rep, err := DecodeReplyFrame(frame)
		if err != nil {
			// A frame that framed correctly but does not decode to a valid
			// reply means the stream is corrupt or the peer speaks another
			// protocol; resynchronizing is impossible, so the connection is
			// fatal. Every waiter sees the specific decode error.
			c.conn.Close()
			c.failPending(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[rep.ID]
		if ok {
			delete(c.pending, rep.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- rep
		} else {
			// Reply for an ID nobody is waiting on: the call was abandoned
			// (deadline) or this is a duplicate. Discard, never deliver.
			c.discarded.Add(1)
			if c.net != nil {
				c.net.LateReplies.Add(1)
			}
		}
	}
}

// Pending reports how many calls are registered awaiting replies. Tests
// use it to assert that abandoned calls reclaim their map entries.
func (c *TCPClient) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Discarded reports how many replies arrived for IDs no caller was waiting
// on — late replies to abandoned (timed-out) calls and duplicates.
func (c *TCPClient) Discarded() uint64 { return c.discarded.Load() }

// Call implements Client.
func (c *TCPClient) Call(req Request) (Reply, error) {
	if c.closed.Load() {
		return Reply{}, ErrClosed
	}
	req.ID = c.nextID.Add(1)
	req.Oneway = false
	ch := getReplyCh()
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return Reply{}, err
	}
	if c.closed.Load() {
		// Close won the race since the fast check above; registering now
		// would still be woken by teardown, but fail cleanly instead.
		c.mu.Unlock()
		return Reply{}, ErrClosed
	}
	c.pending[req.ID] = ch
	c.mu.Unlock()

	if err := c.writeRequest(req); err != nil {
		c.mu.Lock()
		_, mine := c.pending[req.ID]
		delete(c.pending, req.ID)
		c.mu.Unlock()
		if mine {
			// The entry was still ours, so no sender ever touched ch and
			// teardown can no longer close it: safe to recycle.
			replyChPool.Put(ch)
		}
		return Reply{}, err
	}

	if req.Timeout <= 0 {
		rep, ok := <-ch
		if !ok {
			return Reply{}, c.terminalErr()
		}
		replyChPool.Put(ch)
		return rep, nil
	}

	timer := time.NewTimer(req.Timeout)
	defer timer.Stop()
	select {
	case rep, ok := <-ch:
		if !ok {
			return Reply{}, c.terminalErr()
		}
		replyChPool.Put(ch)
		return rep, nil
	case <-timer.C:
		c.mu.Lock()
		if _, registered := c.pending[req.ID]; registered {
			// Nobody has touched the entry: reclaim it. A reply arriving
			// later finds no waiter and is counted in Discarded. With the
			// entry gone no sender or teardown can reach ch, so recycle it.
			delete(c.pending, req.ID)
			c.mu.Unlock()
			replyChPool.Put(ch)
			return Reply{}, fmt.Errorf("transport: call %s: %w after %v", req.Operation, ErrDeadlineExceeded, req.Timeout)
		}
		c.mu.Unlock()
		// readLoop removed the entry concurrently with the timer firing:
		// either the reply beat the deadline at the wire (buffered send is
		// imminent or done — deliver it) or teardown closed the channel.
		rep, ok := <-ch
		if !ok {
			return Reply{}, c.terminalErr()
		}
		replyChPool.Put(ch)
		return rep, nil
	}
}

// terminalErr reports why the connection collapsed, for a caller whose
// pending channel was closed by teardown.
func (c *TCPClient) terminalErr() error {
	c.mu.Lock()
	err := c.readErr
	c.mu.Unlock()
	if err == nil {
		err = ErrClosed
	}
	return err
}

// Post implements Client.
func (c *TCPClient) Post(req Request) error {
	if c.closed.Load() {
		return ErrClosed
	}
	req.ID = c.nextID.Add(1)
	req.Oneway = true
	return c.writeRequest(req)
}

// Close implements Client.
func (c *TCPClient) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	err := c.conn.Close()
	<-c.done
	return err
}
