package workload

import (
	"testing"

	"causeway/internal/analysis"
	"causeway/internal/logdb"
)

func TestGenerateSmallRun(t *testing.T) {
	sys, err := Generate(Config{
		Processes: 4, Threads: 8,
		Components: 20, Interfaces: 15, Methods: 60,
		Calls: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := sys.Store()
	st := logdb.ComputeStats(db)
	if st.Calls < 2000 {
		t.Fatalf("calls = %d, want >= 2000", st.Calls)
	}
	if st.Processes != 4 {
		t.Fatalf("processes = %d", st.Processes)
	}
	if st.Methods > 60 || st.Interfaces > 15 || st.Components > 20 {
		t.Fatalf("catalog exceeded: %+v", st)
	}
	// With 2000 calls over 60 methods, coverage should be complete.
	if st.Methods != 60 {
		t.Fatalf("methods = %d, want 60", st.Methods)
	}

	g := analysis.Reconstruct(db)
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v (first of %d)", g.Anomalies[0], len(g.Anomalies))
	}
	if g.Nodes() != st.Calls {
		t.Fatalf("DSCG nodes = %d, calls = %d", g.Nodes(), st.Calls)
	}
}

func TestGenerateDeterministicCatalog(t *testing.T) {
	a, err := Generate(Config{Calls: 100, Threads: 1, Components: 5, Interfaces: 4, Methods: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Calls: 100, Threads: 1, Components: 5, Interfaces: 4, Methods: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Catalog) != len(b.Catalog) {
		t.Fatal("catalog sizes differ")
	}
	for i := range a.Catalog {
		if a.Catalog[i] != b.Catalog[i] {
			t.Fatalf("catalog entry %d differs: %+v vs %+v", i, a.Catalog[i], b.Catalog[i])
		}
	}
	// Single-threaded runs with one seed are fully deterministic.
	if a.Store().Len() != b.Store().Len() {
		t.Fatalf("record counts differ: %d vs %d", a.Store().Len(), b.Store().Len())
	}
}

func TestGenerateRejectsInconsistentConfig(t *testing.T) {
	if _, err := Generate(Config{Interfaces: 10, Methods: 5, Calls: 1}); err == nil {
		t.Fatal("methods < interfaces accepted")
	}
}

func TestDefaultsMatchCommercialSystem(t *testing.T) {
	var cfg Config
	cfg.applyDefaults()
	if cfg.Processes != 4 || cfg.Threads != 32 || cfg.Components != 176 ||
		cfg.Interfaces != 155 || cfg.Methods != 801 || cfg.Calls != 195000 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestNoTunnelLeaks(t *testing.T) {
	sys, err := Generate(Config{Calls: 500, Threads: 4, Components: 5, Interfaces: 4, Methods: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range sys.Probes {
		if n := p.Tunnel().Annotated(); n != 0 {
			t.Errorf("process %s leaked %d annotations", id, n)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{Calls: 5000, Threads: 4, Components: 20, Interfaces: 15, Methods: 60, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
