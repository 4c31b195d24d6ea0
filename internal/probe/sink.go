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
// body /exportz serves — is streamMagic followed by frames (frame.go), each
// behind its length:
//
//	"CWFTLOG1"                   8-byte magic
//	repeated: uint32 L, L bytes  one frame body, L <= MaxFrameBytes
//
// It has one torn-tail rule, carried by ReadFrames: a stream ends cleanly
// only on a frame boundary (an empty stream, from a writer that never
// flushed, is such an end); a stream cut inside the magic, a length or a
// body yields its complete frames and ErrTruncated; anything else — a wrong
// magic, a length over the cap, a frame that does not decode — is a hard
// error.
const streamMagic = "CWFTLOG1"

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
	_, s.err = s.bw.WriteString(streamMagic)
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
// BatchSink.AppendBatch's argument is: fn copies what it keeps and retains
// nothing. The error follows the stream's one torn-tail rule (see
// streamMagic); in every case fn has seen all the complete frames before
// the fault. Nothing is allocated by what a length field claims: the body
// buffer grows as bytes arrive.
func ReadFrames(r io.Reader, fn func(recs []Record)) error {
	in := frameReader{br: bufio.NewReader(r)}
	var magic [len(streamMagic)]byte
	switch n, err := io.ReadFull(in.br, magic[:]); {
	case errors.Is(err, io.EOF):
		return nil
	case string(magic[:n]) != streamMagic[:n]:
		return fmt.Errorf("probe: not a record stream: starts %q, want %q (a .ftlog written before the frame stream, as gob, must be recorded again)", magic[:n], streamMagic)
	case errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("probe: stream magic torn: %w", ErrTruncated)
	case err != nil:
		return err
	}
	var dec FrameDecoder
	for frame := 0; ; frame++ {
		switch err := in.next(); {
		case errors.Is(err, io.EOF):
			return nil
		case errors.Is(err, io.ErrUnexpectedEOF):
			return fmt.Errorf("probe: frame %d torn: %w", frame, ErrTruncated)
		case err != nil:
			return fmt.Errorf("probe: frame %d: %w", frame, err)
		}
		recs, err := dec.Decode(in.body.Bytes())
		if err != nil {
			return fmt.Errorf("probe: frame %d: %w", frame, err)
		}
		fn(recs)
	}
}

// frameReader reads a stream's length-prefixed frame bodies into one buffer,
// which grows with the bytes read and never by what a length field claims.
type frameReader struct {
	br   *bufio.Reader
	hdr  [4]byte
	lim  io.LimitedReader
	body bytes.Buffer
}

// next reads one frame body. io.EOF means the stream ended on the frame
// boundary, io.ErrUnexpectedEOF that it ended inside the frame.
func (f *frameReader) next() error {
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
