// Command ppsim runs the Printing Pipeline Simulator and writes each
// logical process's monitoring log to a file, demonstrating the paper's
// two-phase workflow: instrumented run first, offline collection and
// characterization (causectl report) second.
//
// Usage:
//
//	ppsim -out /tmp/ppsrun -jobs 5 -pages 3
//	causectl -logs '/tmp/ppsrun/*.ftlog' report -latency
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"causeway/internal/busy"
	"causeway/internal/cputime"
	"causeway/internal/logdb"
	"causeway/internal/orb"
	"causeway/internal/pps"
	"causeway/internal/probe"
	"causeway/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ppsim", flag.ContinueOnError)
	out := fs.String("out", "", "directory for per-process .ftlog files (required)")
	jobs := fs.Int("jobs", 5, "jobs to submit")
	pages := fs.Int("pages", 3, "pages per job")
	color := fs.Bool("color", true, "submit color jobs")
	mono := fs.Bool("mono", false, "monolithic layout")
	cpu := fs.Bool("cpu", false, "arm CPU aspect instead of latency")
	nocolloc := fs.Bool("nocolloc", false, "disable collocation optimization")
	policy := fs.String("policy", "request", "threading policy: request|connection|pool")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out directory is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	layout := pps.FourProcess()
	if *mono {
		layout = pps.Monolithic()
	}
	aspects := probe.AspectLatency
	if *cpu {
		aspects = probe.AspectCPU
	}
	var pol orb.PolicyKind
	switch *policy {
	case "request":
		pol = orb.ThreadPerRequest
	case "connection":
		pol = orb.ThreadPerConnection
	case "pool":
		pol = orb.ThreadPool
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	opts := pps.Options{
		Network:            transport.NewInprocNetwork(),
		Layout:             layout,
		Instrumented:       true,
		Aspects:            aspects,
		Policy:             pol,
		DisableCollocation: *nocolloc,
		Work:               func(units int) { busy.Iters(units * 5000) },
	}
	if *cpu {
		opts.PinDispatch = true
		opts.MeterFor = func(string) cputime.Meter { return cputime.OSThreadMeter{} }
	}
	pipeline, err := pps.Build(opts)
	if err != nil {
		return err
	}
	defer pipeline.Shutdown()

	start := time.Now()
	if err := pipeline.RunJobs(*jobs, int32(*pages), *color); err != nil {
		return err
	}
	if err := pipeline.AwaitQuiescent(*jobs, 30*time.Second); err != nil {
		return err
	}
	fmt.Fprintf(w, "processed %d jobs × %d pages in %v\n", *jobs, *pages, time.Since(start).Round(time.Millisecond))

	// Persist each process's log.
	written := 0
	for proc, sink := range pipeline.Sinks {
		db := logdb.NewStore()
		db.Insert(sink.Snapshot()...)
		path := filepath.Join(*out, proc+".ftlog")
		if err := logdb.SaveFile(db, path); err != nil {
			return err
		}
		written += db.Len()
	}
	fmt.Fprintf(w, "wrote %d records to %s/*.ftlog — analyze with:\n  go run ./cmd/causectl -logs '%s/*.ftlog' report -latency\n",
		written, *out, *out)
	return nil
}
