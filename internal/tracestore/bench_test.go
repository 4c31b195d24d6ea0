package tracestore

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// benchStore fills dir with about n records of nested chains of 4 to 16
// events over 4 processes and 6 interfaces, inserted as the collector
// inserts them: 256-record batches that interleave 32 chains in flight, so
// a segment frame is one chain's run of a batch. It returns the records
// written.
func benchStore(tb testing.TB, dir string, n int) int {
	tb.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	wall := time.Unix(1_700_000_000, 0)
	var inflight [][]probe.Record
	batch := make([]probe.Record, 0, 256)
	written, chain := 0, 0
	for written < n {
		for len(inflight) < 32 {
			var c uuid.UUID
			chain++
			c[0], c[1], c[2], c[15] = byte(chain), byte(chain>>8), byte(chain>>16), 0xbe
			recs := nestedChain(c, chain%4, fmt.Sprintf("iface%d", chain%6), wall.Add(time.Duration(chain)*time.Microsecond))
			for i := range recs {
				recs[i].Process = fmt.Sprintf("proc%02d", (chain+i/2)%4)
			}
			inflight = append(inflight, recs)
		}
		// One record of each chain in flight a turn, until the batch fills.
		for k := 0; k < len(inflight) && len(batch) < cap(batch); k++ {
			batch = append(batch, inflight[k][0])
			if inflight[k] = inflight[k][1:]; len(inflight[k]) == 0 {
				inflight = append(inflight[:k], inflight[k+1:]...)
				k--
			}
		}
		if len(batch) == cap(batch) || len(inflight) < 32 {
			s.Insert(batch...)
			written += len(batch)
			batch = batch[:0]
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return written
}

// BenchmarkStoreOpenScan times the read side a whole-store query pays before
// its analysis, in ns per stored record: Open, whose recovery reads every
// frame of every segment through the index decode, and then every ScanPart,
// which decodes each chain's frames into one compact slab per shard. The
// store of about 3 M records is built once.
func BenchmarkStoreOpenScan(b *testing.B) {
	dir := b.TempDir()
	records := benchStore(b, dir, 3_000_000)
	run := func(b *testing.B, scan bool) {
		for i := 0; i < b.N; i++ {
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			syms := probe.NewSymbols(s.Parts())
			for p := 0; scan && p < s.Parts(); p++ {
				s.ScanPart(p, syms.Table(p), func(uuid.UUID, []probe.Compact) {})
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	}
	b.Run("open+scan", func(b *testing.B) { run(b, true) })
	b.Run("open", func(b *testing.B) { run(b, false) })
}

// BenchmarkStoreQuery times a whole-store query as `causectl -store DIR
// top` runs it, in ns and bytes allocated per stored record: Open, then
// ReconstructParallel, ComputeLatency, ComputeCPU and InterfaceStats on
// every core, then Close. The store of about 800 k records is built once.
func BenchmarkStoreQuery(b *testing.B) {
	dir := b.TempDir()
	records := benchStore(b, dir, 800_000)
	workers := runtime.GOMAXPROCS(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		g := analysis.ReconstructParallel(s, workers)
		g.ComputeLatency()
		g.ComputeCPU()
		if len(analysis.InterfaceStats(g, workers)) == 0 {
			b.Fatal("no interface ranked")
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perRecord := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRecord, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perRecord, "B/record")
}

// BenchmarkStoreInsert times the write of one evicted chain, in ns per
// record, through each of the chain table's doors: Insert of the chain's
// records, and InsertCompacts of its compacts with the symbol table that
// holds their strings, the way a collector's chain table hands it over.
// The chains are benchStore's: nested, of 4 to 16 events over 4 processes
// and 6 interfaces, each inserted alone.
func BenchmarkStoreInsert(b *testing.B) {
	wall := time.Unix(1_700_000_000, 0)
	const pool = 4096
	chains := make([][]probe.Record, pool)
	tab := probe.NewSymbols(1).Table(0)
	compacts := make([][]probe.Compact, pool)
	records := 0
	for i := range chains {
		var c uuid.UUID
		c[0], c[1], c[15] = byte(i), byte(i>>8), 0xbe
		recs := nestedChain(c, i%4, fmt.Sprintf("iface%d", i%6), wall.Add(time.Duration(i)*time.Microsecond))
		for j := range recs {
			recs[j].Process = fmt.Sprintf("proc%02d", (i+j/2)%4)
		}
		chains[i], compacts[i] = recs, tab.AppendCompacts(nil, recs)
		records += len(recs)
	}
	run := func(b *testing.B, insert func(s *Store, i int)) {
		s, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			insert(s, i%pool)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)*pool/float64(records), "ns/record")
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("records", func(b *testing.B) { run(b, func(s *Store, i int) { s.Insert(chains[i]...) }) })
	b.Run("compacts", func(b *testing.B) { run(b, func(s *Store, i int) { s.InsertCompacts(compacts[i], tab) }) })
}
