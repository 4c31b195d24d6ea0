// Embedded-system example — the paper's §4 commercial large-scale system
// analog: a synthetic component-based workload at the published scale
// (default: 195,000 calls over 801 methods in 155 interfaces from 176
// components, 32 threads, 4 processes), followed by DSCG reconstruction.
// The paper's Java analyzer took 28 minutes on 2003 hardware for this
// size; this prints what the Go reconstruction takes here.
//
// Run:
//
//	go run ./examples/embeddedsystem             # full Figure-5 scale
//	go run ./examples/embeddedsystem -calls 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/logdb"
	"causeway/internal/render"
	"causeway/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "embeddedsystem:", err)
		os.Exit(1)
	}
}

func run() error {
	calls := flag.Int("calls", 195000, "target invocation count")
	threads := flag.Int("threads", 32, "client threads")
	procs := flag.Int("processes", 4, "logical processes")
	seed := flag.Int64("seed", 1, "workload seed")
	show := flag.Int("show", 12, "DSCG nodes to print")
	flag.Parse()

	fmt.Printf("generating workload: %d calls, %d threads, %d processes, 176 components / 155 interfaces / 801 methods…\n",
		*calls, *threads, *procs)
	genStart := time.Now()
	sys, err := workload.Generate(workload.Config{
		Calls: *calls, Threads: *threads, Processes: *procs, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("workload generated in %v\n", time.Since(genStart).Round(time.Millisecond))

	collectStart := time.Now()
	db := sys.Store()
	st := logdb.ComputeStats(db)
	fmt.Printf("collected %d records in %v: %d calls, %d chains, %d methods / %d interfaces / %d components, %d threads\n",
		st.Records, time.Since(collectStart).Round(time.Millisecond),
		st.Calls, st.Chains, st.Methods, st.Interfaces, st.Components, st.Threads)

	reconStart := time.Now()
	g := analysis.Reconstruct(db)
	reconTime := time.Since(reconStart)
	fmt.Printf("DSCG reconstructed in %v: %d nodes, %d trees, %d anomalies\n",
		reconTime.Round(time.Millisecond), g.Nodes(), len(g.Trees), len(g.Anomalies))
	fmt.Printf("(the paper's Java analyzer needed 28 minutes for 195,000 calls on a 1.7 GHz x4000 in 2003)\n")

	fmt.Printf("\nfirst %d nodes of the DSCG:\n", *show)
	return render.DSCGText(os.Stdout, g, -1, *show)
}
