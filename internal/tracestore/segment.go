package tracestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"

	"causeway/internal/probe"
)

// A segment file is a record stream (probe/sink.go): probe.StreamMagic, then
// frame bodies (probe/frame.go) each behind its uint32 length. A shard writes
// one frame per chain run, so a segment reads as it is through
// logdb.LoadGlob, and recovery reads it through probe.FrameReader under the
// stream's one torn-tail rule: a crashed writer leaves at most one torn frame
// at the tail, recovery truncates to the last complete frame and the
// readable prefix stands.
const (
	segHeader   = int64(len(probe.StreamMagic))
	frameHeader = 4
	// oldSegMagic heads a segment of the per-record layout segments had
	// before they were record streams. Open refuses one by name; no reader
	// for it is kept.
	oldSegMagic = "CWTSEG1\n"
)

// segWriteBuf is the segment writer's buffer: frames leave it in writes of
// this size. The journal, not this buffer, bounds what a killed collector
// loses, so its size is set by cost alone; 64 KB was measured against the
// 4 KB default, which made one write(2) per ~38 records.
const segWriteBuf = 64 << 10

// segmentWriter appends frames to one segment file through a buffer, so the
// ingest hot path pays an in-memory copy rather than a syscall per frame.
// The buffer is allocated by the first append: a store opened only to be
// read allocates none. size tracks the logical file size including buffered
// bytes.
type segmentWriter struct {
	f    *os.File
	bw   *bufio.Writer // nil until the first append
	size int64
	len4 [frameHeader]byte
}

// createSegment creates path and writes the magic header.
func createSegment(path string) (*segmentWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracestore: create segment: %w", err)
	}
	if _, err := f.WriteString(probe.StreamMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: segment header: %w", err)
	}
	return &segmentWriter{f: f, size: segHeader}, nil
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
	return &segmentWriter{f: f, size: size}, nil
}

// append writes one frame body behind its length and returns the body's
// offset, which the in-memory index retains for ReadAt-backed queries.
func (w *segmentWriter) append(body []byte) (off int64, err error) {
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(w.f, segWriteBuf)
	}
	binary.LittleEndian.PutUint32(w.len4[:], uint32(len(body)))
	if _, err := w.bw.Write(w.len4[:]); err != nil {
		return 0, err
	}
	if _, err := w.bw.Write(body); err != nil {
		return 0, err
	}
	off = w.size + frameHeader
	w.size = off + int64(len(body))
	return off, nil
}

func (w *segmentWriter) flush() error {
	if w.bw == nil {
		return nil
	}
	return w.bw.Flush()
}

func (w *segmentWriter) close() error {
	if err := w.flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// sync flushes the buffer and fsyncs the file (compaction uses it before
// the rename that commits a rewritten segment).
func (w *segmentWriter) sync() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.f.Sync()
}
