// Command embedsim generates a commercial-embedded-system-scale synthetic
// run (§4 / Figure 5: 195,000 calls over 801 methods in 155 interfaces
// from 176 components, 32 threads, 4 processes) and writes each logical
// process's monitoring log to a file for `causectl report`.
//
// Usage:
//
//	embedsim -out /tmp/embed -calls 195000
//	causectl -logs '/tmp/embed/*.ftlog' report -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"causeway/internal/logdb"
	"causeway/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "embedsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("embedsim", flag.ContinueOnError)
	out := fs.String("out", "", "directory for per-process .ftlog files (required)")
	calls := fs.Int("calls", 195000, "target invocation count")
	threads := fs.Int("threads", 32, "client threads")
	procs := fs.Int("processes", 4, "logical processes")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out directory is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	start := time.Now()
	sys, err := workload.Generate(workload.Config{
		Calls: *calls, Threads: *threads, Processes: *procs, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload of %d calls generated in %v\n", *calls, time.Since(start).Round(time.Millisecond))

	written := 0
	for proc, sink := range sys.Sinks {
		db := logdb.NewStore()
		db.Insert(sink.Snapshot()...)
		if err := logdb.SaveFile(db, filepath.Join(*out, proc+".ftlog")); err != nil {
			return err
		}
		written += db.Len()
	}
	fmt.Fprintf(w, "wrote %d records to %s/*.ftlog — analyze with:\n  go run ./cmd/causectl -logs '%s/*.ftlog' report -stats\n",
		written, *out, *out)
	return nil
}
