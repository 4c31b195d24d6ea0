package main

import (
	"fmt"
	"io"
	"math"
)

// runCalibration runs n sets of every workload, untraced, on seeds
// seed..seed+n-1, and prints per end-to-end metric and workload the median,
// the quartiles and the range, and the bound it proposes: three times the
// widest interquartile spread any workload shows (so a driver that accepts
// a spread up to the bound sees one a third of it), at least a tenth and at
// most the quarter a manifest may state.
func runCalibration(p params, n int, out io.Writer) int {
	values := make(map[string]map[string][]float64) // metric -> workload -> values
	for _, d := range endToEnd {
		values[d.name] = make(map[string][]float64)
	}
	code := 0
	for set := 0; set < n; set++ {
		q := p
		q.seed = p.seed + int64(set)
		for _, w := range workloads {
			res, problems, err := runWorkload(w, q, false, "")
			if err != nil {
				fmt.Fprintln(out, "bench:", err)
				return 1
			}
			for _, pr := range problems {
				fmt.Fprintf(out, "bench: %s: CHECK FAILED: %s\n", w.name, pr)
				code = 1
			}
			for _, d := range endToEnd {
				values[d.name][w.name] = append(values[d.name][w.name], res.Metrics[d.name].Value)
			}
			fmt.Fprintf(out, "# set %d/%d %s done\n", set+1, n, w.name)
		}
	}
	fmt.Fprintf(out, "%-18s %-16s %14s %14s %14s %10s %10s\n", "metric", "workload", "median", "q1", "q3", "iqr/med", "range/med")
	for _, d := range endToEnd {
		worst := 0.0
		for _, w := range workloads {
			vs := values[d.name][w.name]
			med, q1, q3 := median(vs), quantile(vs, 0.25), quantile(vs, 0.75)
			spread := ratio(q3-q1, med)
			fmt.Fprintf(out, "%-18s %-16s %14.6g %14.6g %14.6g %10.4f %10.4f\n",
				d.name, w.name, med, q1, q3, spread, ratio(maxOf(vs)-quantile(vs, 0), med))
			worst = math.Max(worst, spread)
		}
		fmt.Fprintf(out, "%-18s proposed bound %.2f\n", d.name, math.Min(0.25, math.Max(0.10, 3*worst)))
	}
	return code
}
