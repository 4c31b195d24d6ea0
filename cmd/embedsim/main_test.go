package main

import (
	"path/filepath"
	"strings"
	"testing"

	"causeway/internal/logdb"
)

func TestEmbedsimWritesLogs(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-out", dir, "-calls", "500", "-threads", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	db := logdb.NewStore()
	n, _, err := db.LoadGlob(filepath.Join(dir, "*.ftlog"))
	if err != nil || n == 0 {
		t.Fatalf("collected %d, err %v", n, err)
	}
	if st := logdb.ComputeStats(db); st.Processes != 4 || st.Calls < 500 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmbedsimRequiresOut(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -out accepted")
	}
}
