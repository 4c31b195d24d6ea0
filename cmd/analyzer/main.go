// Command analyzer is the offline characterization tool (§3): it collects
// scattered per-process monitoring logs, reconstructs the Dynamic System
// Call Graph, computes end-to-end latency and CPU propagation, and prints
// the results (DSCG text, per-operation latency table, CCSG text or XML).
//
// Usage:
//
//	analyzer [flags] 'run1/*.ftlog'
//
// Flags:
//
//	-dscg N     print at most N DSCG nodes (0 = all)
//	-depth N    limit DSCG depth (-1 = unlimited)
//	-latency    print the per-operation latency table
//	-ccsg       print the CCSG as text
//	-ccsgxml    print the CCSG as XML (Figure 6 format)
//	-stats      print run statistics only
//	-workers N  fan DSCG reconstruction over N goroutines (0 = GOMAXPROCS)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"causeway"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/render"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "analyzer:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("analyzer", flag.ContinueOnError)
	dscgNodes := fs.Int("dscg", 100, "max DSCG nodes to print (0 = all)")
	depth := fs.Int("depth", -1, "max DSCG depth (-1 = unlimited)")
	latency := fs.Bool("latency", false, "print per-operation latency table")
	ccsg := fs.Bool("ccsg", false, "print CCSG as text")
	ccsgXML := fs.Bool("ccsgxml", false, "print CCSG as XML")
	statsOnly := fs.Bool("stats", false, "print run statistics only")
	seqchart := fs.Bool("seqchart", false, "print an OVATION-style per-process sequence chart (requires latency-aspect logs)")
	topology := fs.Bool("topology", false, "print the component-interaction topology")
	workers := fs.Int("workers", 1, "parallel DSCG reconstruction workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: analyzer [flags] 'glob-of-ftlog-files'")
	}

	start := time.Now()
	db := logdb.NewStore()
	_, warnings, err := db.LoadGlob(fs.Arg(0))
	if err != nil {
		return err
	}
	report := causeway.AnalyzeSource(db, *workers)
	report.Warnings += warnings
	st := report.Stats
	fmt.Fprintf(w, "analyzed in %v: %d records, %d calls, %d chains, %d methods / %d interfaces / %d components, %d processes, %d threads, %d anomalies, %d warnings\n",
		time.Since(start).Round(time.Millisecond), st.Records, st.Calls, st.Chains,
		st.Methods, st.Interfaces, st.Components, st.Processes, st.Threads,
		len(report.Graph.Anomalies), report.Warnings)
	if warnings > 0 {
		fmt.Fprintln(w, logdb.TornTails(warnings))
	}
	for _, b := range report.Graph.Broken {
		fmt.Fprintf(w, "  ! broken %s\n", b)
	}
	for _, a := range report.Graph.Anomalies {
		fmt.Fprintf(w, "  ! %s\n", a)
	}
	if *statsOnly {
		return nil
	}

	switch {
	case *ccsgXML:
		return report.WriteCCSGXML(w)
	case *ccsg:
		return report.WriteCCSGText(w)
	case *seqchart:
		var recs []probe.Record
		for _, c := range db.Chains() {
			recs = append(recs, db.Events(c)...)
		}
		return render.SequenceChart(w, recs)
	}

	if *topology {
		fmt.Fprintln(w, "\ncomponent interactions (caller -> callee):")
		for _, e := range report.Interactions {
			fmt.Fprintf(w, "  %-24s -> %-24s calls=%-6d oneway=%-4d cross-process=%-6d mean-latency=%v\n",
				e.Caller, e.Callee, e.Calls, e.Oneway, e.CrossProcess, e.MeanLatency())
		}
		return nil
	}

	fmt.Fprintln(w, "\nDynamic System Call Graph:")
	if err := render.DSCGText(w, report.Graph, *depth, *dscgNodes); err != nil {
		return err
	}
	if *latency {
		fmt.Fprintln(w, "\nper-operation latency (descending total):")
		for _, s := range report.LatencyStats {
			fmt.Fprintf(w, "  %-40s count=%-6d min=%-12v mean=%-12v max=%-12v total=%v\n",
				s.Op.Interface+"::"+s.Op.Operation, s.Count, s.Min, s.Mean, s.Max, s.Total)
		}
	}
	return nil
}
