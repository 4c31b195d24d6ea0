package main

import "time"

// runEpochs measures a workload that cannot be measured in one long window.
//
// The system under test keeps something for every chain it has ever seen —
// the collector's online monitor its trees, the store its index, a
// causeway.Process without a log file its records — so its heap grows for as
// long as records stream in and every GC cycle costs more than the last. At
// full speed the garbage collector soon sets the pace: ingest runs at 300 000
// records/s between cycles and at 20 000 during one, and cycles last half a
// second within ten. One long window measures mostly that, and spread twice
// as widely from run to run as what follows.
//
// An epoch is a fixed amount of work on a freshly started system: the same
// allocations in the same order from the same empty state. Epochs follow one
// another until together they have measured for the given time; the figures
// of the run are the medians of theirs, so an epoch a neighbour's burst fell
// on does not set them. restart closes the system and starts a fresh one; the
// time it takes is not measured.
func runEpochs(seconds float64, epoch func() (*measurement, error), restart func() error) (*measurement, error) {
	var all []*measurement
	var measured time.Duration
	for {
		m, err := epoch()
		if err != nil {
			return nil, err
		}
		all = append(all, m)
		if measured += m.window; measured.Seconds() >= seconds {
			return combine(all), nil
		}
		if err := restart(); err != nil {
			return nil, err
		}
	}
}

// combine folds the epochs of one window into one measurement: counts and
// times add up, every figure is the median of the epochs' figures.
func combine(all []*measurement) *measurement {
	out := &measurement{layer: make(map[string]float64)}
	across := func(value func(*measurement) float64) float64 {
		vs := make([]float64, len(all))
		for i, m := range all {
			vs[i] = value(m)
		}
		return median(vs)
	}
	for _, m := range all {
		out.attempted += m.attempted
		out.failed += m.failed
		out.problems = append(out.problems, m.problems...)
		out.window += m.window
		out.collectorCPU += m.collectorCPU
		for name := range m.layer {
			out.layer[name] = 0
		}
	}
	out.recordsPerS = across(func(m *measurement) float64 { return m.recordsPerS })
	out.cpuUSPerRecord = across(func(m *measurement) float64 { return m.cpuUSPerRecord })
	out.latencyMS = across(func(m *measurement) float64 { return m.latencyMS })
	for name := range out.layer {
		out.layer[name] = across(func(m *measurement) float64 { return m.layer[name] })
	}
	return out
}
