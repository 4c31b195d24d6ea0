package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"causeway/internal/probe"
)

// journaledStore is a store that lives in a directory and buffers its
// writes (tracestore). A node keeps its frame journal beside it; a store
// without these methods lives in memory, and a kill loses it whole, so it
// gets no journal.
type journaledStore interface {
	Dir() string
	Flush() error
}

// journalSuffix names a journal file: a record stream, one per generation.
const journalSuffix = ".ftlog"

// journal keeps every frame a node acknowledges until the records in it
// have left the node's buffers. It is a directory of record streams (the
// .ftlog and segment format: StreamMagic, then length-prefixed frames),
// one per generation of the chain table; each frame is appended verbatim
// with one write(2), before the ack, which the records reach the table
// after. A killed node's journal replays into its store on the next start.
// Nothing is fsynced: the journal survives the process, not the host.
type journal struct {
	dir string

	mu     sync.Mutex
	cur    *os.File       // nil after a failed write, until the next rotation
	ended  bool           // drained: no file is started again
	curN   int            // the current file's number
	size   int64          // the current file's length: its magic and every whole frame
	frames int            // frames in the current file
	closed []journalEntry // rotated files, oldest first
	live   int64          // bytes in every file of the journal
	buf    []byte         // one frame with its length, for the one write
}

// journalEntry is a rotated journal file and the chain table's Appended
// count when it closed: every record in it is at or below that ordinal.
type journalEntry struct {
	path  string
	last  uint64
	bytes int64
}

// journalFiles lists dir's journal files in the order they were written.
func journalFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), journalSuffix) {
			files = append(files, e.Name())
		}
	}
	slices.Sort(files) // fixed-width numbers sort in write order
	return files, nil
}

// recoverJournal replays every journal file in dir into store — what a
// killed node acknowledged but may not have written out — then flushes the
// store and deletes the files. InsertNew's identity dedup absorbs the
// records that had reached a segment. A torn tail (the frame a kill cut
// short, never acknowledged) ends a file with a warning; any other fault
// refuses the start and leaves the files in place. It returns how many
// records the store accepted as new and the number the next file takes.
func recoverJournal(dir string, store Store) (accepted uint64, next int, warnings []string, err error) {
	files, err := journalFiles(dir)
	if err != nil || len(files) == 0 {
		return 0, 1, nil, err
	}
	for _, name := range files {
		n, warn, err := replayJournalFile(filepath.Join(dir, name), store)
		accepted += n
		if err != nil {
			return accepted, 0, warnings, err
		}
		if warn != "" {
			warnings = append(warnings, warn)
		}
	}
	if err := store.(journaledStore).Flush(); err != nil {
		return accepted, 0, warnings, fmt.Errorf("cluster: journal replay: store flush: %w", err)
	}
	for _, name := range files {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return accepted, 0, warnings, err
		}
	}
	// Numbering goes on from the last file; a name that is no number
	// starts it over, which is safe now that the files are gone.
	if _, err := fmt.Sscanf(files[len(files)-1], "%d", &next); err != nil {
		next = 0
	}
	return accepted, next + 1, warnings, nil
}

// replayJournalFile inserts one journal file's records into store.
func replayJournalFile(path string, store Store) (accepted uint64, warning string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	in := probe.NewFrameReader(f)
	for frames := 0; ; frames++ {
		recs, _, err := in.Next()
		switch {
		case err == io.EOF:
			return accepted, "", nil
		case errors.Is(err, probe.ErrTruncated):
			return accepted, fmt.Sprintf("journal %s: torn tail after %d frame(s) (%d bytes kept): %v", path, frames, in.Offset(), err), nil
		case err != nil:
			return accepted, "", fmt.Errorf("cluster: journal %s: %w", path, err)
		}
		accepted += uint64(store.InsertNew(recs...))
	}
}

// openJournal starts the journal in dir with file number next.
func openJournal(dir string, next int) (*journal, error) {
	j := &journal{dir: dir, curN: next - 1}
	if err := j.startFile(); err != nil {
		return nil, err
	}
	return j, nil
}

// startFile opens the next journal file and writes its magic. Called
// under j.mu, or before the journal is shared.
func (j *journal) startFile() error {
	j.curN++
	f, err := os.OpenFile(filepath.Join(j.dir, fmt.Sprintf("%06d%s", j.curN, journalSuffix)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: journal: %w", err)
	}
	if _, err := f.WriteString(probe.StreamMagic); err != nil {
		f.Close()
		return fmt.Errorf("cluster: journal: %w", err)
	}
	j.cur, j.size, j.frames = f, int64(len(probe.StreamMagic)), 0
	j.live += j.size
	return nil
}

// write appends one frame body with one write(2). A failed write is cut
// back off the file, so the file stays a record stream and the frame is
// refused whole; if even that fails, the journal refuses every frame until
// the next rotation starts a new file (the failed one stays on disk for the
// next start to replay).
func (j *journal) write(body []byte) error {
	if len(body) > probe.MaxFrameBytes {
		return fmt.Errorf("cluster: journal: frame of %d bytes exceeds the stream's %d-byte limit", len(body), probe.MaxFrameBytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cur == nil {
		return errors.New("cluster: journal: no file to write")
	}
	j.buf = binary.LittleEndian.AppendUint32(j.buf[:0], uint32(len(body)))
	j.buf = append(j.buf, body...)
	if _, err := j.cur.Write(j.buf); err != nil {
		if terr := j.cur.Truncate(j.size); terr != nil {
			j.cur.Close()
			j.cur = nil
		}
		return fmt.Errorf("cluster: journal: %w", err)
	}
	j.size += int64(len(j.buf))
	j.live += int64(len(j.buf))
	j.frames++
	return nil
}

// rotate closes the current file and starts the next; last is the chain
// table's Appended count. It must run with no frame between the journal and
// the table (telemetry Server.Quiesce), so that every record in the file
// has reached the table, at an ordinal no higher than last. A file with no
// frame is kept on.
func (j *journal) rotate(last uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.ended:
		return nil
	case j.cur == nil:
		return j.startFile()
	case j.frames == 0:
		return nil
	}
	cerr := j.cur.Close()
	j.closed = append(j.closed, journalEntry{path: j.cur.Name(), last: last, bytes: j.size})
	j.cur = nil
	return errors.Join(cerr, j.startFile())
}

// retire deletes the rotated files whose every record has left the chain
// table — all of them when the table holds nothing (heldFrom reports
// false), else those closed before the oldest record it holds arrived —
// once flush has pushed the store's buffered writes out.
func (j *journal) retire(heldFrom func() (uint64, bool), flush func() error) error {
	j.mu.Lock()
	waiting := len(j.closed) > 0
	j.mu.Unlock()
	if !waiting {
		return nil
	}
	from, held := heldFrom()
	j.mu.Lock()
	n := 0
	for n < len(j.closed) && (!held || j.closed[n].last < from) {
		n++
	}
	done := slices.Clone(j.closed[:n])
	j.mu.Unlock()
	if n == 0 {
		return nil
	}
	if err := flush(); err != nil {
		return err
	}
	return j.remove(done)
}

// remove deletes retired files, first to last, and forgets them.
func (j *journal) remove(done []journalEntry) error {
	for i, e := range done {
		if err := os.Remove(e.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			done = done[:i]
			j.forget(done)
			return fmt.Errorf("cluster: journal: %w", err)
		}
	}
	j.forget(done)
	return nil
}

func (j *journal) forget(done []journalEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range done {
		j.live -= e.bytes
	}
	j.closed = j.closed[len(done):]
}

// drain ends the journal of a node whose table has been flushed into the
// store: once flush succeeds, every file goes.
func (j *journal) drain(flush func() error) error {
	j.mu.Lock()
	if j.cur != nil {
		j.cur.Close() // its error is moot: the file is deleted below
		j.closed = append(j.closed, journalEntry{path: j.cur.Name(), bytes: j.size})
		j.cur = nil
	}
	j.ended = true
	done := slices.Clone(j.closed)
	j.mu.Unlock()
	if err := flush(); err != nil {
		return err
	}
	return j.remove(done)
}

// WriteMetrics renders the journal's size.
func (j *journal) WriteMetrics(w io.Writer) {
	j.mu.Lock()
	files, live := len(j.closed), j.live
	if j.cur != nil {
		files++
	}
	j.mu.Unlock()
	fmt.Fprintf(w, "causeway_journal_files %d\n", files)
	fmt.Fprintf(w, "causeway_journal_bytes %d\n", live)
}
