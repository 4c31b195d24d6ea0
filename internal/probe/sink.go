package probe

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// MemorySink buffers records in memory. The zero value is ready to use.
type MemorySink struct {
	mu   sync.Mutex
	recs []Record
}

var _ Sink = (*MemorySink)(nil)

// Append implements Sink.
func (s *MemorySink) Append(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, r)
}

// Snapshot returns a copy of the records accumulated so far.
func (s *MemorySink) Snapshot() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// Len reports the number of buffered records.
func (s *MemorySink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Reset discards all buffered records.
func (s *MemorySink) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = nil
}

// A record stream — a per-process .ftlog file, a collector's -out file, the
// body /exportz serves, a trace store's segment file — is StreamMagic
// followed by frames (frame.go), each behind its length:
//
//	"CWFTLOG1"                   8-byte magic
//	repeated: uint32 L, L bytes  one frame body, L <= MaxFrameBytes
//
// It has one torn-tail rule, carried by FrameReader: a stream ends cleanly
// only on a frame boundary (an empty stream, from a writer that never
// flushed, is such an end); a stream cut inside the magic, a length or a
// body yields its complete frames and ErrTruncated; anything else — a wrong
// magic, a length over the cap, a frame that does not decode — is a hard
// error.
const StreamMagic = "CWFTLOG1"

// MaxFrameBytes caps one frame of a record stream at the transport's own
// frame limit: whatever could be shipped can be written, and a corrupt
// length field cannot pass for a frame.
const MaxFrameBytes = 64 << 20

// StreamSink writes records to an io.Writer as a record stream — the
// per-process on-disk log the collector later gathers (§3: "the scattered
// logs are collected and eventually synthesized"). Every Append or
// AppendSpan call becomes one frame.
//
// Writes pass through an internal bufio.Writer so the probe hot path pays
// one in-memory encode rather than a syscall per record; callers must
// Flush (or Close) before the underlying writer is read or closed, exactly
// as with bufio itself. What a killed writer loses is what bufio had not
// flushed, and its file ends in at most one torn frame.
type StreamSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc FrameEncoder
	hdr [4]byte
	err error
}

var _ SpanSink = (*StreamSink)(nil)

// NewStreamSink wraps w in a buffered stream writer and buffers the magic.
func NewStreamSink(w io.Writer) *StreamSink {
	s := &StreamSink{bw: bufio.NewWriter(w)}
	_, s.err = s.bw.WriteString(StreamMagic)
	return s
}

// Append implements Sink. The first write error is retained and
// subsequent appends become no-ops; Err exposes it.
func (s *StreamSink) Append(r Record) { s.AppendSpan([]Record{r}) }

// AppendSpan implements SpanSink: one lock acquisition, one frame and one
// copy of the identity strings cover the whole span.
func (s *StreamSink) AppendSpan(recs []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || len(recs) == 0 {
		return
	}
	body := s.enc.Encode(recs)
	if len(body) > MaxFrameBytes {
		s.err = fmt.Errorf("probe: frame of %d bytes exceeds the stream's %d-byte limit", len(body), MaxFrameBytes)
		return
	}
	binary.LittleEndian.PutUint32(s.hdr[:], uint32(len(body)))
	if _, s.err = s.bw.Write(s.hdr[:]); s.err == nil {
		_, s.err = s.bw.Write(body)
	}
}

// Flush forces buffered bytes to the underlying writer and returns the
// first error seen (writing or flushing).
func (s *StreamSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// Close flushes the sink. The underlying writer is NOT closed — the sink
// does not own it.
func (s *StreamSink) Close() error { return s.Flush() }

// Err returns the first write or flush error, if any.
func (s *StreamSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ErrTruncated reports a record stream that ends off a frame boundary — the
// signature a crashed (or still-running) writer leaves behind. Readers that
// can treat the complete prefix as a usable log match it with errors.Is.
var ErrTruncated = errors.New("probe: record stream truncated mid-frame")

// ReadFrames reads a record stream frame by frame, calling fn with each
// frame's records. recs is the reader's decode slab, borrowed as
// FrameSink.AppendFrame's argument is: fn copies what it keeps and retains
// nothing. The error follows the stream's one torn-tail rule (see
// StreamMagic); in every case fn has seen all the complete frames before
// the fault.
func ReadFrames(r io.Reader, fn func(recs []Record)) error {
	in := NewFrameReader(r)
	for {
		recs, _, err := in.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(recs)
	}
}

// FrameReader reads a record stream one frame at a time and knows where each
// frame lies: ReadFrames loops over it, and the trace store's recovery scan,
// which indexes records by the frame that holds them, calls it directly.
// Nothing is allocated by what a length field claims: the body buffer grows
// as bytes arrive.
type FrameReader struct {
	br    *bufio.Reader
	hdr   [4]byte
	lim   io.LimitedReader
	body  bytes.Buffer
	dec   FrameDecoder
	off   int64 // the stream read whole: the magic and every complete frame
	frame int   // complete frames read, which names a faulty one
}

// NewFrameReader reads r, through r itself when it is a *bufio.Reader of at
// least the default size.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Offset is how much of the stream has been read whole — the magic and every
// complete frame: after a torn tail, the length of the readable prefix.
func (f *FrameReader) Offset() int64 { return f.off }

// Next reads the next frame and returns its records — the reader's decode
// slab, valid until the next call — and the stream offset of its body, which
// ends at Offset. The error is io.EOF where the stream ends cleanly, and
// otherwise follows the one torn-tail rule (see StreamMagic).
func (f *FrameReader) Next() (recs []Record, body int64, err error) {
	if err = f.read(); err != nil {
		return nil, 0, err
	}
	if recs, err = f.dec.Decode(f.body.Bytes()); err != nil {
		return nil, 0, fmt.Errorf("probe: frame %d: %w", f.frame, err)
	}
	return recs, f.advance(), nil
}

// NextIndex is Next through FrameDecoder.DecodeIndex: the same frames and
// the same errors, each frame as its records' index entries, and as its
// records too when it holds a link — what the trace store's recovery scan
// indexes.
func (f *FrameReader) NextIndex() (ents []IndexEntry, recs []Record, body int64, err error) {
	if err = f.read(); err != nil {
		return nil, nil, 0, err
	}
	if ents, recs, err = f.dec.DecodeIndex(f.body.Bytes()); err != nil {
		return nil, nil, 0, fmt.Errorf("probe: frame %d: %w", f.frame, err)
	}
	return ents, recs, f.advance(), nil
}

// read reads the next frame's body into f.body, the stream's magic first.
func (f *FrameReader) read() error {
	if f.off == 0 {
		if err := f.readMagic(); err != nil {
			return err
		}
	}
	switch err := f.readFrame(); {
	case errors.Is(err, io.EOF):
		return io.EOF
	case errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("probe: frame %d torn: %w", f.frame, ErrTruncated)
	case err != nil:
		return fmt.Errorf("probe: frame %d: %w", f.frame, err)
	}
	return nil
}

// advance counts the frame just decoded as read whole and returns the
// stream offset of its body.
func (f *FrameReader) advance() int64 {
	body := f.off + int64(len(f.hdr))
	f.off = body + int64(f.body.Len())
	f.frame++
	return body
}

// readMagic reads the stream's magic; io.EOF means the stream is empty.
func (f *FrameReader) readMagic() error {
	var magic [len(StreamMagic)]byte
	switch n, err := io.ReadFull(f.br, magic[:]); {
	case errors.Is(err, io.EOF):
		return io.EOF
	case string(magic[:n]) != StreamMagic[:n]:
		return fmt.Errorf("probe: not a record stream: starts %q, want %q (a .ftlog written before the frame stream, as gob, must be recorded again)", magic[:n], StreamMagic)
	case errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("probe: stream magic torn: %w", ErrTruncated)
	case err != nil:
		return err
	}
	f.off = int64(len(StreamMagic))
	return nil
}

// readFrame reads one frame body. io.EOF means the stream ended on the
// frame boundary, io.ErrUnexpectedEOF that it ended inside the frame.
func (f *FrameReader) readFrame() error {
	if _, err := io.ReadFull(f.br, f.hdr[:]); err != nil {
		return err
	}
	size := binary.LittleEndian.Uint32(f.hdr[:])
	if size > MaxFrameBytes {
		return fmt.Errorf("length %d exceeds the %d-byte limit", size, MaxFrameBytes)
	}
	f.body.Reset()
	f.lim = io.LimitedReader{R: f.br, N: int64(size)}
	if n, err := f.body.ReadFrom(&f.lim); err != nil {
		return err
	} else if n < int64(size) {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// ReadStream collects every record of a record stream. The error is
// ReadFrames': nil, one wrapping ErrTruncated beside the complete frames'
// records, or a hard error beside the records read before it.
func ReadStream(r io.Reader) ([]Record, error) {
	var out []Record
	err := ReadFrames(r, func(recs []Record) { out = append(out, recs...) })
	return out, err
}

// TeeSink duplicates records to multiple sinks.
type TeeSink []Sink

var _ SpanSink = TeeSink(nil)

// Append implements Sink.
func (t TeeSink) Append(r Record) {
	for _, s := range t {
		s.Append(r)
	}
}

// AppendSpan implements SpanSink: span-aware members receive the span in
// one call, the rest get the records individually in span order.
func (t TeeSink) AppendSpan(recs []Record) {
	for _, s := range t {
		if ss, ok := s.(SpanSink); ok {
			ss.AppendSpan(recs)
			continue
		}
		for i := range recs {
			s.Append(recs[i])
		}
	}
}

// CountingSink counts records without storing them; used by overhead
// benchmarks to isolate probe cost from sink cost. Lock-free so the
// benchmark measures the probe path, not the counter.
type CountingSink struct {
	n atomic.Int64
}

var _ SpanSink = (*CountingSink)(nil)

// Append implements Sink.
func (c *CountingSink) Append(Record) {
	c.n.Add(1)
}

// AppendSpan implements SpanSink.
func (c *CountingSink) AppendSpan(recs []Record) {
	c.n.Add(int64(len(recs)))
}

// Count returns the number of appended records.
func (c *CountingSink) Count() int {
	return int(c.n.Load())
}
