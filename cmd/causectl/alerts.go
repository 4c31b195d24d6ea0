package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"causeway/internal/alerting"
	"causeway/internal/cluster"
)

// cmdAlerts renders the SLO alert state of one or more running
// evaluators (collectd -alerts, or any process with ProcessConfig.SLO)
// by fetching their /alertz debug endpoints. It needs no store: the
// alert plane is live state. The printed cursor feeds -since for
// incremental transition polling.
func cmdAlerts(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("causectl alerts", flag.ContinueOnError)
	addr := fs.String("addr", "", "comma-separated debug addresses serving /alertz (required)")
	since := fs.Uint64("since", 0, "only print transitions with ID greater than this cursor")
	timeout := fs.Duration("timeout", 2*time.Second, "per-endpoint fetch timeout")
	firingOnly := fs.Bool("firing", false, "only print rules that are currently firing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("usage: causectl alerts -addr dbg1[,dbg2,...] [-since cursor] [-firing]")
	}
	var firstErr error
	for _, a := range cluster.SplitAddrs(*addr) {
		st, err := alerting.FetchStatus(a, *since, *timeout)
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", a, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		fmt.Fprintf(w, "%s at %s (cursor %d):\n", a, st.Now.Format(time.RFC3339), st.Cursor)
		printed := 0
		for _, al := range st.Alerts {
			if *firingOnly && al.State != "firing" {
				continue
			}
			printed++
			fmt.Fprintf(w, "  %-20s %-9s %s  fast %.2fx  slow %.2fx  since %s\n",
				al.Rule, al.State, al.Family, al.FastBurn, al.SlowBurn,
				al.Since.Format(time.RFC3339))
			for _, ex := range al.Exemplars {
				fmt.Fprintf(w, "    exemplar chain=%s latency=%v at %s\n",
					ex.Chain, ex.Value, ex.When.Format(time.RFC3339))
			}
		}
		if printed == 0 {
			fmt.Fprintln(w, "  no matching rules")
		}
		for _, tr := range st.Transitions {
			line := fmt.Sprintf("  transition %d: %s %s -> %s at %s (fast %.2fx, slow %.2fx)",
				tr.ID, tr.Rule, tr.From, tr.To, tr.At.Format(time.RFC3339),
				tr.FastBurn, tr.SlowBurn)
			if len(tr.Exemplars) > 0 {
				line += " exemplars " + strings.Join(tr.Exemplars, ",")
			}
			fmt.Fprintln(w, line)
		}
	}
	return firstErr
}
