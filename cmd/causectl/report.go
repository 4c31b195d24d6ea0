package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"causeway"
	"causeway/internal/probe"
	"causeway/internal/render"
)

// cmdReport is the offline characterization (§3): the run statistics,
// then one output — the DSCG (optionally with the per-operation latency
// table), the CCSG as text or XML, a sequence chart, or the component
// topology. start is when loading began and tornTails how many loaded
// log files had torn tails; both belong to the stats line.
func cmdReport(w io.Writer, src source, workers int, start time.Time, tornTails int, args []string) error {
	fs := flag.NewFlagSet("causectl report", flag.ContinueOnError)
	dscgNodes := fs.Int("dscg", 100, "max DSCG nodes to print (0 = all)")
	depth := fs.Int("depth", -1, "max DSCG depth (-1 = unlimited)")
	latency := fs.Bool("latency", false, "print the DSCG and the per-operation latency table")
	ccsg := fs.Bool("ccsg", false, "print the CCSG as text")
	ccsgXML := fs.Bool("ccsgxml", false, "print the CCSG as XML (Figure 6 format)")
	statsOnly := fs.Bool("stats", false, "print run statistics only")
	seqchart := fs.Bool("seqchart", false, "print an OVATION-style per-process sequence chart (requires latency-aspect logs)")
	topology := fs.Bool("topology", false, "print the component-interaction topology")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: causectl report [-dscg N] [-depth N] [-latency | -ccsg | -ccsgxml | -seqchart | -topology | -stats]")
	}
	modes := 0
	for _, on := range []bool{*latency, *ccsg, *ccsgXML, *statsOnly, *seqchart, *topology} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("report prints one of -latency, -ccsg, -ccsgxml, -seqchart, -topology or -stats, not several")
	}

	report := causeway.AnalyzeSource(src, workers)
	report.Warnings += tornTails
	st := report.Stats
	fmt.Fprintf(w, "analyzed in %v: %d records, %d calls, %d chains, %d methods / %d interfaces / %d components, %d processes, %d threads, %d anomalies, %d warnings\n",
		time.Since(start).Round(time.Millisecond), st.Records, st.Calls, st.Chains,
		st.Methods, st.Interfaces, st.Components, st.Processes, st.Threads,
		len(report.Graph.Anomalies), report.Warnings)
	for _, b := range report.Graph.Broken {
		fmt.Fprintf(w, "  ! broken %s\n", b)
	}
	for _, a := range report.Graph.Anomalies {
		fmt.Fprintf(w, "  ! %s\n", a)
	}

	switch {
	case *statsOnly:
		return nil
	case *ccsgXML:
		return report.WriteCCSGXML(w)
	case *ccsg:
		return report.WriteCCSGText(w)
	case *seqchart:
		var recs []probe.Record
		for _, c := range src.Chains() {
			recs = append(recs, src.Events(c)...)
		}
		return render.SequenceChart(w, recs)
	case *topology:
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
