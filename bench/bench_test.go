package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// manifest is ../BENCHMARK.json, the file a driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesProgram fails when BENCHMARK.json and the lists the
// program prints from drift apart.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]*", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var got []string
	for _, w := range m.Workloads {
		name(w.Name)
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: manifest %v, program %v", got, want)
	}

	check := func(kind string, in []manifestMetric, defs []metricDef, bounded bool) {
		var got []metricDef
		for _, mm := range in {
			name(mm.Name)
			if !unitRE.MatchString(mm.Unit) {
				t.Errorf("%s %s: unit %q", kind, mm.Name, mm.Unit)
			}
			if mm.Better != "lower" && mm.Better != "higher" {
				t.Errorf("%s %s: better %q", kind, mm.Name, mm.Better)
			}
			switch {
			case bounded && (mm.Bound == nil || *mm.Bound <= 0 || *mm.Bound > 0.25):
				t.Errorf("%s %s: needs a bound in (0, 0.25]", kind, mm.Name)
			case !bounded && mm.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, mm.Name)
			}
			got = append(got, metricDef{mm.Name, mm.Unit})
		}
		if !reflect.DeepEqual(got, defs) {
			t.Errorf("%s: manifest and program disagree\nmanifest %v\nprogram  %v", kind, got, defs)
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)

	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", m.Paths)
	}
}

// TestSmoke runs every workload, untraced and traced, at a hundredth of
// the scale, and checks what the run printed and wrote. An epoch lasts a
// little over the quiescence window at this scale, so 1.4 s makes every
// window of the epoch workloads, traced ones too, restart its system once.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scale", "0.01", "-seconds", "1.4", "-tracedir", dir, "-json", jsonPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, &stderr, &stdout)
	}

	// Every workload header and every metric line, once each per run, with
	// the metric's unit.
	out := stdout.String()
	for _, w := range workloads {
		for _, tr := range []string{"trace=0", "trace=1"} {
			if n := strings.Count(out, "workload "+w.name+" "+tr+" "); n != 1 {
				t.Errorf("%s %s printed %d times", w.name, tr, n)
			}
		}
	}
	lines := strings.Split(out, "\n")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			n := 0
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 3 && f[0] == d.name && f[2] == d.unit {
					n++
				}
			}
			if n != len(workloads) {
				t.Errorf("metric %s [%s] printed %d times, want once per workload", d.name, d.unit, n)
			}
		}
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Environment map[string]string `json:"environment"`
		Results     []report          `json:"results"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"gomaxprocs", "nproc", "cpu_model", "go", "commit"} {
		if file.Environment[k] == "" {
			t.Errorf("environment lacks %s", k)
		}
	}
	if len(file.Results) != 2*len(workloads) {
		t.Fatalf("%d results, want %d", len(file.Results), 2*len(workloads))
	}
	for _, r := range file.Results {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed)
		}
		defs := endToEnd
		if r.Trace == 1 {
			defs = perLayer
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s trace=%d: %d metrics, want %d", r.Workload, r.Trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := r.Metrics[d.name]
			if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s trace=%d: metric %s = %+v (present %v)", r.Workload, r.Trace, d.name, v, ok)
			}
			// An end-to-end metric is never 0; a per-layer one is 0 on a
			// workload that never enters the layer.
			if r.Trace == 0 && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", r.Workload, d.name, v.Value)
			}
		}
	}

	for _, w := range workloads {
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Errorf("trace-%s.json: %v", w.name, err)
			continue
		}
		if len(spans) == 0 {
			t.Errorf("trace-%s.json holds no spans", w.name)
		}
		ids := make(map[int64]bool, len(spans))
		for _, s := range spans {
			ids[s.ID] = true
		}
		for _, s := range spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("trace-%s.json: span %d (%s) names parent %d, which is absent", w.name, s.ID, s.Name, s.Parent)
			}
			if s.EndNS < s.StartNS || s.BusyNS < 0 {
				t.Errorf("trace-%s.json: span %d (%s) runs backwards: %+v", w.name, s.ID, s.Name, s)
			}
		}
	}
}

// TestFailedCheckFailsRun corrupts the oracle's reference and expects the
// run to say so: a result line with correct false, and a non-zero exit.
func TestFailedCheckFailsRun(t *testing.T) {
	corruptReference = true
	defer func() { corruptReference = false }()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "ingest-saturate", "-scale", "0.01", "-seconds", "0.3"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit 0 with a corrupted reference\n%s", &stdout)
	}
	if !strings.Contains(stderr.String(), "CHECK FAILED") {
		t.Errorf("stderr does not name the failed check:\n%s", &stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("result %+v, want correct=false and failed>0", res)
	}
}

// TestInputsAreAFunctionOfTheSeed: the same seed gives the same stream, the
// same pinning and the same open-loop schedule; another seed gives another.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	type key struct {
		proc  string
		chain [16]byte
		seq   uint64
		op    string
	}
	shape := func(seed int64) ([]key, []uint8, []delivery) {
		st, err := generateStream(seed, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]key, len(st.recs))
		for i, r := range st.recs {
			keys[i] = key{r.Process, r.Chain, r.Seq, r.Op.Operation}
		}
		return keys, st.pin, st.schedule(len(st.recs)*3/2, skewRate, skewLag)
	}
	k1, p1, s1 := shape(7)
	k2, p2, s2 := shape(7)
	if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(s1, s2) {
		t.Error("two generations from one seed differ")
	}
	if k3, _, _ := shape(8); reflect.DeepEqual(k1, k3) {
		t.Error("seeds 7 and 8 generate the same stream")
	}
}
