package main

import (
	"path/filepath"
	"strings"
	"testing"

	"causeway/internal/logdb"
)

func TestPpsimWritesAnalyzableLogs(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-out", dir, "-jobs", "2", "-pages", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "processed 2 jobs") {
		t.Fatalf("output: %s", out.String())
	}
	db := logdb.NewStore()
	n, _, err := db.LoadGlob(filepath.Join(dir, "*.ftlog"))
	if err != nil || n == 0 {
		t.Fatalf("collected %d records, err %v", n, err)
	}
	if st := logdb.ComputeStats(db); st.Components != 11 {
		t.Fatalf("components = %d, want 11", st.Components)
	}
}

func TestPpsimPolicyAndLayoutFlags(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-out", dir, "-jobs", "1", "-pages", "1", "-mono", "-policy", "pool", "-nocolloc"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-out", dir, "-policy", "warp"}, &out); err == nil {
		t.Fatal("bad policy accepted")
	}
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -out accepted")
	}
}
