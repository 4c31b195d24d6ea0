package tracestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"causeway/internal/cdr"
	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// Segment file layout: an 8-byte magic header followed by frames, each a
// little-endian uint32 payload length plus a cdr-encoded record payload
// (internal/cdr conventions: length-prefixed strings, little-endian
// integers, raw fixed-size UUIDs; the flags octet and the time encoding are
// the ones internal/probe's wire helpers define, shared with ship frames).
// A crashed writer leaves at most one torn frame at the tail; recovery
// truncates to the last complete frame and the readable prefix stands,
// mirroring probe.ReadFrames' ErrTruncated handling for record streams.
const (
	segMagic    = "CWTSEG1\n"
	segHeader   = int64(len(segMagic))
	frameHeader = 4
	// maxFramePayload bounds a frame so a corrupt length prefix cannot
	// provoke a huge allocation.
	maxFramePayload = 16 << 20
)

// encodePayload appends r's cdr encoding to e (no length prefix).
func encodePayload(e *cdr.Encoder, r *probe.Record) {
	e.PutOctet(byte(r.Kind))
	e.PutOctet(r.WireFlags())
	e.PutString(r.Process)
	e.PutString(r.ProcType)
	e.PutUint64(r.Thread)
	e.PutString(r.Op.Component)
	e.PutString(r.Op.Interface)
	e.PutString(r.Op.Operation)
	e.PutString(r.Op.Object)
	e.PutString(r.Semantics)
	e.PutRaw(r.Chain[:])
	e.PutOctet(byte(r.Event))
	e.PutUint64(r.Seq)
	probe.PutWireTime(e, r.WallStart)
	probe.PutWireTime(e, r.WallEnd)
	e.PutInt64(int64(r.CPUStart))
	e.PutInt64(int64(r.CPUEnd))
	e.PutRaw(r.LinkParent[:])
	e.PutUint64(r.LinkParentSeq)
	e.PutRaw(r.LinkChild[:])
}

// decodePayload parses one frame payload into r, writing every field.
// Without withStrings an event's seven strings — all of it that costs an
// allocation, and nothing the recovery scan indexes — are checked by their
// length prefix and left as they were in r, never built. A link, which the
// index keeps whole, is always decoded whole. Both modes accept exactly the
// same payloads: every field is consumed, Finish must pass, and the kind
// must be known (FuzzOpenSegment holds the recovery scan to that).
func decodePayload(buf []byte, r *probe.Record, withStrings bool) error {
	d := cdr.NewDecoder(buf)
	r.Kind = probe.RecordKind(d.Octet())
	r.SetWireFlags(d.Octet())
	withStrings = withStrings || r.Kind == probe.KindLink
	if withStrings {
		r.Process = d.String()
		r.ProcType = d.String()
	} else {
		skipStrings(d, 2)
	}
	r.Thread = d.Uint64()
	if withStrings {
		r.Op.Component = d.String()
		r.Op.Interface = d.String()
		r.Op.Operation = d.String()
		r.Op.Object = d.String()
		r.Semantics = d.String()
	} else {
		skipStrings(d, 5)
	}
	copy(r.Chain[:], d.Raw(uuid.Size))
	r.Event = ftl.Event(d.Octet())
	r.Seq = d.Uint64()
	r.WallStart = probe.GetWireTime(d)
	r.WallEnd = probe.GetWireTime(d)
	r.CPUStart = time.Duration(d.Int64())
	r.CPUEnd = time.Duration(d.Int64())
	copy(r.LinkParent[:], d.Raw(uuid.Size))
	r.LinkParentSeq = d.Uint64()
	copy(r.LinkChild[:], d.Raw(uuid.Size))
	if err := d.Finish(); err != nil {
		return fmt.Errorf("tracestore: record payload: %w", err)
	}
	if r.Kind != probe.KindEvent && r.Kind != probe.KindLink {
		return fmt.Errorf("tracestore: record kind %d", r.Kind)
	}
	return nil
}

// skipStrings consumes n length-prefixed strings with the bounds check
// Decoder.String applies, building none of them.
func skipStrings(d *cdr.Decoder, n int) {
	for ; n > 0; n-- {
		d.BytesNoCopy()
	}
}

// segmentWriter appends frames to one segment file through a buffer, so
// the ingest hot path pays an in-memory encode rather than a syscall per
// record. size tracks the logical file size including buffered bytes.
type segmentWriter struct {
	f    *os.File
	bw   *bufio.Writer
	size int64
	enc  cdr.Encoder
	len4 [frameHeader]byte
}

// createSegment creates path and writes the magic header.
func createSegment(path string) (*segmentWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracestore: create segment: %w", err)
	}
	w := &segmentWriter{f: f, bw: bufio.NewWriter(f), size: segHeader}
	if _, err := w.bw.WriteString(segMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: segment header: %w", err)
	}
	return w, nil
}

// appendSegment opens an existing (recovered) segment for further appends
// at offset size.
func appendSegment(path string, size int64) (*segmentWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("tracestore: open segment: %w", err)
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: seek segment: %w", err)
	}
	return &segmentWriter{f: f, bw: bufio.NewWriter(f), size: size}, nil
}

// append encodes r as one frame. It returns the payload's offset and size,
// which the in-memory index retains for ReadAt-backed queries.
func (w *segmentWriter) append(r *probe.Record) (off int64, size uint32, err error) {
	w.enc.Reset()
	encodePayload(&w.enc, r)
	payload := w.enc.Bytes()
	binary.LittleEndian.PutUint32(w.len4[:], uint32(len(payload)))
	if _, err := w.bw.Write(w.len4[:]); err != nil {
		return 0, 0, err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return 0, 0, err
	}
	off = w.size + frameHeader
	w.size += frameHeader + int64(len(payload))
	return off, uint32(len(payload)), nil
}

func (w *segmentWriter) flush() error { return w.bw.Flush() }

func (w *segmentWriter) close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// sync flushes the buffer and fsyncs the file (compaction uses it before
// the rename that commits a rewritten segment).
func (w *segmentWriter) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// scanSegment walks every complete frame of f from the header on, calling
// fn with each record and its payload location. fn borrows the record for
// the call, and an event's strings are empty: the scan decodes what the
// index keeps (decodePayload without strings) into one reused record, from
// one reused payload buffer. It returns the byte offset of the last
// complete frame's end. A tail cut mid-frame — the signature a crashed
// writer leaves — returns an error wrapping probe.ErrTruncated; the caller
// truncates to goodSize and the readable prefix stands. Any other decode
// failure is a hard error.
func scanSegment(f *os.File, fn func(rec *probe.Record, off int64, size uint32)) (goodSize int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("tracestore: stat segment: %w", err)
	}
	total := info.Size()
	if total < segHeader {
		// Crash while writing the 8-byte header: nothing readable.
		return 0, fmt.Errorf("tracestore: segment header torn: %w", probe.ErrTruncated)
	}
	br := bufio.NewReaderSize(&offsetReader{f: f}, 1<<16)
	var magic [segHeader]byte
	if _, err := readFull(br, magic[:]); err != nil {
		return 0, fmt.Errorf("tracestore: segment header: %w", err)
	}
	if string(magic[:]) != segMagic {
		return 0, fmt.Errorf("tracestore: bad segment magic %q", magic)
	}
	good := segHeader
	var len4 [frameHeader]byte
	var payload []byte
	var rec probe.Record
	for good < total {
		if total-good < frameHeader {
			return good, fmt.Errorf("tracestore: frame length torn at %d: %w", good, probe.ErrTruncated)
		}
		if _, err := readFull(br, len4[:]); err != nil {
			return good, fmt.Errorf("tracestore: frame length at %d: %w", good, err)
		}
		size := binary.LittleEndian.Uint32(len4[:])
		if size > maxFramePayload {
			return good, fmt.Errorf("tracestore: frame at %d claims %d bytes", good, size)
		}
		if total-good-frameHeader < int64(size) {
			return good, fmt.Errorf("tracestore: frame payload torn at %d: %w", good, probe.ErrTruncated)
		}
		if cap(payload) < int(size) {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := readFull(br, payload); err != nil {
			return good, fmt.Errorf("tracestore: frame payload at %d: %w", good, err)
		}
		rec = probe.Record{}
		if err := decodePayload(payload, &rec, false); err != nil {
			return good, fmt.Errorf("tracestore: frame at %d: %w", good, err)
		}
		fn(&rec, good+frameHeader, size)
		good += frameHeader + int64(size)
	}
	return good, nil
}

// offsetReader adapts ReadAt-style access into a sequential io.Reader that
// never moves the file's own seek position (the write path owns it).
type offsetReader struct {
	f   *os.File
	off int64
}

func (r *offsetReader) Read(p []byte) (int, error) {
	n, err := r.f.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}

func readFull(br *bufio.Reader, p []byte) (int, error) {
	return io.ReadFull(br, p)
}
