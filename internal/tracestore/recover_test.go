package tracestore

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"causeway/internal/ftl"
)

// shardSeg names segment id of shard k under dir.
func shardSeg(dir string, k, id int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", k), segName(id))
}

// copyStore copies a closed store's files into a fresh directory.
func copyStore(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	err := filepath.Walk(from, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return to
}

// openFDs counts the process's open file descriptors, -1 where /proc is not
// mounted.
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(entries)
}

// TestOpenRecoversShardsDeterministically: shards recover concurrently, yet
// a reopened store warns about its torn tails in shard order, and a store
// that cannot open fails with the lowest-numbered failing shard's error and
// leaves no shard's files open — every time.
func TestOpenRecoversShardsDeterministically(t *testing.T) {
	const shards = 8
	torn := []int{1, 6}
	old := []int{3, 5}

	master := t.TempDir()
	ts, err := Open(master, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(1700000000, 0)
	for c := 0; c < 200; c++ {
		ts.Insert(ev(chainID(byte(c)), 1, ftl.StubStart, "IRecover", wall),
			ev(chainID(byte(c)), 2, ftl.StubEnd, "IRecover", wall))
	}
	// The lower torn shard is the slowest to recover, so with a goroutine
	// per shard its warning tends to arrive last.
	for c := 0; ; c++ {
		if chain := chainID(byte(c)); ts.shardIndex(chain) == torn[0] {
			for seq := uint64(3); seq < 20000; seq++ {
				ts.Insert(ev(chain, seq, ftl.StubStart, "IRecover", wall))
			}
			break
		}
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shards))
	for k := 0; k < shards; k++ {
		if fi, err := os.Stat(shardSeg(master, k, 0)); err != nil || fi.Size() <= segHeader {
			t.Fatalf("shard %d holds no frame (%v): the store cannot tear it", k, err)
		}
	}

	// tear copies the master and cuts three bytes off the torn shards' tails;
	// withOld also gives the old shards a segment of the old layout.
	tear := func(withOld bool) string {
		dir := copyStore(t, master)
		for _, k := range torn {
			path := shardSeg(dir, k, 0)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}
		if withOld {
			for _, k := range old {
				if err := os.WriteFile(shardSeg(dir, k, 1), []byte(cwtseg1Segment), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir
	}

	var wantWarns []string
	var wantErr string
	for run := 0; run < 10; run++ {
		dir := tear(false)
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		warns := s.Warnings()
		s.Close()
		// Each run has its own directory; nothing else in a warning may
		// change from run to run.
		for i := range warns {
			warns[i] = strings.ReplaceAll(warns[i], dir, "DIR")
		}
		if len(warns) != len(torn) {
			t.Fatalf("run %d: warnings %q, want one per torn shard", run, warns)
		}
		for i, k := range torn {
			if !strings.HasPrefix(warns[i], shardSeg("DIR", k, 0)+": torn tail") {
				t.Fatalf("run %d: warning %d is %q, want shard %d's torn tail", run, i, warns[i], k)
			}
		}
		if run == 0 {
			wantWarns = warns
		} else if !slices.Equal(warns, wantWarns) {
			t.Fatalf("run %d: warnings %q, run 0 said %q", run, warns, wantWarns)
		}

		dir = tear(true)
		before := openFDs()
		s, err = Open(dir, Options{})
		if err == nil {
			s.Close()
			t.Fatalf("run %d: a store with CWTSEG1 segments opened", run)
		}
		if after := openFDs(); after != before {
			t.Fatalf("run %d: a failed Open left %d files open", run, after-before)
		}
		msg := strings.ReplaceAll(err.Error(), dir, "DIR")
		if !strings.Contains(msg, shardSeg("DIR", old[0], 1)+" is a CWTSEG1 segment") {
			t.Fatalf("run %d: error %q, want the lowest old shard's", run, err)
		}
		if run == 0 {
			wantErr = msg
		} else if msg != wantErr {
			t.Fatalf("run %d: error %q, run 0 said %q", run, msg, wantErr)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatalf("run %d: remove after a failed Open: %v", run, err)
		}
		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("run %d: reopen of a removed store: %v", run, err)
		}
		if n := s.Len(); n != 0 {
			t.Fatalf("run %d: a removed store reopened with %d records", run, n)
		}
		s.Close()
	}
}
