// Command bench is the repository's benchmark: four workloads over the
// record's whole journey — application call, shipper, collector, durable
// store, query — measured end to end and, in a separate traced run, layer
// by layer. README.md in this directory describes the workloads, the
// metrics and how they are expected to interact; ../BENCHMARK.json is the
// manifest a driver reads.
//
// A driver runs one workload per invocation:
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output, one JSON object. Without
// --workload every workload runs, untraced and traced, and every metric is
// printed by name with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json repeats these
// lists; bench_test.go fails when the two drift apart.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"cpu_us_per_record", "us"},
	{"latency_ms", "ms"},
}

var perLayer = []metricDef{
	// What a user sees, per workload, under the issue's own names. The
	// first four are the percentiles and second readings that did not
	// repeat within a tenth or do not exist on every workload, so they
	// carry no bound; the rest restate an end-to-end metric in its
	// natural unit.
	{"app_call_p50_us", "us"},
	{"app_call_p99_us", "us"},
	{"app_calls_per_s", "1/s"},
	{"freshness_p50_ms", "ms"},
	{"freshness_p99_ms", "ms"},
	{"query_top_s", "s"},
	{"query_show_s", "s"},
	// orb + transport
	{"orb.plain_call_us", "us"},
	{"transport.bytes_per_call", "B"},
	// probe + gls
	{"probe.overhead_us", "us"},
	{"probe.records_per_call", "count"},
	{"probe.local_calls_per_s", "1/s"},
	// telemetry, shipper side
	{"telemetry.ship_overhead_us", "us"},
	{"telemetry.shipper_append_ns", "ns"},
	{"telemetry.batch_records", "count"},
	{"telemetry.wire_bytes_per_record", "B"},
	{"telemetry.shipper_dropped", "count"},
	{"telemetry.buffered_max", "count"},
	// telemetry, server side
	{"telemetry.ship_call_p50_us", "us"},
	{"telemetry.ship_call_p99_us", "us"},
	{"telemetry.server_self_us_per_batch", "us"},
	{"telemetry.server_busy_share", "ratio"},
	// online
	{"online.append_ns_per_record", "ns"},
	{"online.busy_share", "ratio"},
	// streamrecon
	{"streamrecon.append_ns_per_record", "ns"},
	{"streamrecon.tick_p50_ms", "ms"},
	{"streamrecon.tick_max_ms", "ms"},
	{"streamrecon.tick_self_share", "ratio"},
	{"streamrecon.evict_us_per_chain", "us"},
	{"streamrecon.open_chains_max", "count"},
	{"streamrecon.buffered_max", "count"},
	{"streamrecon.shed", "count"},
	{"streamrecon.completions", "count"},
	{"streamrecon.early_completions", "count"},
	// tracestore, write side
	{"tracestore.insert_ns_per_record", "ns"},
	{"tracestore.insert_share", "ratio"},
	{"tracestore.insert_calls", "count"},
	{"tracestore.flush_ms", "ms"},
	{"tracestore.bytes_per_record", "B"},
	// tracestore, read side
	{"tracestore.open_s", "s"},
	{"tracestore.events_p50_us", "us"},
	{"tracestore.events_p99_us", "us"},
	{"tracestore.chains_ms", "ms"},
	// analysis
	{"analysis.reconstruct_par_s", "s"},
	{"analysis.reconstruct_seq_s", "s"},
	{"analysis.parse_us_per_chain", "us"},
	{"analysis.latency_cpu_ms", "ms"},
	{"analysis.iface_stats_ms", "ms"},
	// render
	{"render.dscg_text_us", "us"},
	// Go runtime
	{"go.alloc_bytes_per_record", "B"},
	{"go.mallocs_per_record", "count"},
	{"go.heap_peak_mb", "MB"},
	{"go.gc_pause_total_ms", "ms"},
	// harness validity gauges
	{"gen.lag_p50_us", "us"},
	{"gen.lag_p99_us", "us"},
	{"gen.lag_max_us", "us"},
	{"collector.traced_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a driver reads from the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are the inputs every workload takes.
type params struct {
	seed    int64
	seconds float64
	// scale shrinks generated streams and per-slice call counts for smoke
	// runs. Rates, windows and periods do not change with it.
	scale float64
	// tmp is where stores are built; inside the checkout.
	tmp string
	// traced is set in an invocation that reports the per-layer metrics.
	traced bool
}

// measurement is what one measured window of a workload yields.
type measurement struct {
	attempted, failed int64
	problems          []string // failed oracle checks
	// recordsPerS is the rate at which records finished the workload's
	// path and cpuUSPerRecord the process CPU one of them cost. Each
	// workload's measure says over what it samples them.
	recordsPerS, cpuUSPerRecord float64
	// window is the whole measured window, the base of every share.
	window time.Duration
	// collectorCPU estimates the CPU the collector side used: the
	// process's minus the load generator's. Record-stream workloads only;
	// on echo-closed the ORB's dispatch goroutines cannot be told apart.
	collectorCPU time.Duration
	// latencyMS is the wait the workload's user typically saw: a median,
	// except on echo-closed (see its measure).
	latencyMS float64
	// layer holds per-layer values by the names in perLayer.
	layer map[string]float64
}

func (m *measurement) fail(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
	m.failed++
}

// env is a workload set up and ready to be measured once.
type env interface {
	measure(seconds float64) (*measurement, error)
	close()
}

// workloadDef names a workload and sets an env up for it. tr is non-nil for the traced window.
type workloadDef struct {
	name  string
	setup func(p params, tr *tracer) (env, error)
}

var workloads = []workloadDef{
	{"echo-closed", setupEcho},
	{"ingest-saturate", func(p params, tr *tracer) (env, error) { return setupIngest(p, tr, false) }},
	{"ingest-skew", func(p params, tr *tracer) (env, error) { return setupIngest(p, tr, true) }},
	{"query-scale", setupQuery},
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median. The last set-up is the one measured (the last two in a traced
// run: an untraced window to compare against, then the traced one).
const setupRepeats = 3

// runWorkload performs one driver invocation's worth of work.
func runWorkload(w workloadDef, p params, traced bool, traceDir string) (result, []string, error) {
	p.traced = traced
	var setups []float64
	var plain, tracedM *measurement
	var spans []span
	for i := 0; i < setupRepeats; i++ {
		var tr *tracer
		if traced && i == setupRepeats-1 {
			tr = newTracer()
		}
		runtime.GC() // every set-up starts from a collected heap, not from the last one's garbage
		start := time.Now()
		e, err := w.setup(p, tr)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		seconds := p.seconds
		if traced {
			seconds /= 2
		}
		switch last := i == setupRepeats-1; {
		case last && traced:
			tracedM, err = e.measure(seconds)
			spans = tr.finish()
		case last || (traced && i == setupRepeats-2):
			plain, err = e.measure(seconds)
		}
		e.close()
		if err != nil {
			return result{}, nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}

	res := result{Metrics: make(map[string]metric)}
	var problems []string
	if !traced {
		res.Attempted, res.Failed, problems = plain.attempted, plain.failed, plain.problems
		values := map[string]float64{
			"setup_s":           median(setups),
			"records_per_s":     plain.recordsPerS,
			"cpu_us_per_record": plain.cpuUSPerRecord,
			"latency_ms":        plain.latencyMS,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
	} else {
		res.Attempted = plain.attempted + tracedM.attempted
		res.Failed = plain.failed + tracedM.failed
		problems = append(plain.problems, tracedM.problems...)
		layerFromSpans(tracedM, spans)
		tracedM.layer["trace.overhead_ratio"] = ratio(tracedM.cpuUSPerRecord, plain.cpuUSPerRecord)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{tracedM.layer[d.name], d.unit}
		}
		if traceDir != "" {
			if err := writeTrace(traceDir, w.name, spans); err != nil {
				return result{}, nil, err
			}
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s has no value: its sample is empty", name))
			res.Metrics[name] = metric{0, v.Unit}
		}
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	return res, problems, nil
}

// environment describes the host: numbers from hosts that differ in any of
// these are never compared.
func environment() map[string]string {
	env := map[string]string{
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"cpu_model":  "unknown",
		"commit":     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is one workload's result as -json writes it.
type report struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     int64  `json:"seed"`
	result
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload only and end with one JSON result line (default: all, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 16, "how long a run measures")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced window")
	traceDir := fs.String("tracedir", "", "write the traced window's spans to DIR/trace-<workload>.json")
	scale := fs.Float64("scale", 1, "shrink generated streams and call slices by this factor (smoke runs)")
	calibrate := fs.Int("calibrate", 0, "run N sets of every workload on seeds seed..seed+N-1 and print spreads and proposed bounds")
	jsonOut := fs.String("json", "", "also write every result and the environment to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || *scale <= 0 || *scale > 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	var only *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			only = &workloads[i]
		}
	}
	if *name != "" && only == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *calibrate != 0 && *calibrate < 5 {
		fmt.Fprintln(stderr, "bench: -calibrate needs at least 5 sets")
		return 2
	}
	// Stores are built under the working directory: a driver's checkout is
	// the only place the benchmark may write.
	tmp, err := os.MkdirTemp(".", ".bench-tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	p := params{seed: *seed, seconds: *seconds, scale: *scale, tmp: tmp}

	envInfo := environment()
	for _, k := range []string{"commit", "go", "gomaxprocs", "nproc", "cpu_model"} {
		fmt.Fprintf(stdout, "# %s: %s\n", k, envInfo[k])
	}
	if *calibrate > 0 {
		return runCalibration(p, *calibrate, stdout)
	}

	var reports []report
	one := func(w workloadDef, traced bool) bool {
		res, problems, err := runWorkload(w, p, traced, *traceDir)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return false
		}
		for _, pr := range problems {
			fmt.Fprintf(stderr, "bench: %s: CHECK FAILED: %s\n", w.name, pr)
		}
		t, defs := 0, endToEnd
		if traced {
			t, defs = 1, perLayer
		}
		fmt.Fprintf(stdout, "workload %s trace=%d seed=%d attempted=%d failed=%d correct=%v\n",
			w.name, t, p.seed, res.Attempted, res.Failed, res.Correct)
		for _, d := range defs {
			fmt.Fprintf(stdout, "  %-36s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
		}
		reports = append(reports, report{w.name, t, p.seed, res})
		return res.Correct
	}

	ok := true
	if only != nil {
		ok = one(*only, *trace == 1)
	} else {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				ok = one(w, traced) && ok
			}
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(map[string]any{"environment": envInfo, "results": reports}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			ok = false
		}
	}
	if only != nil && len(reports) == 1 {
		// The driver's line: last on standard output, whether or not the
		// checks passed. A run that could not finish prints none.
		line, err := json.Marshal(reports[0].result)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !ok {
		return 1
	}
	return 0
}
