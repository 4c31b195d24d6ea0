package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics; vs need not be sorted. NaN when vs is empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// orZero maps the NaN of an empty sample to 0: a layer a workload never
// enters reports 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func maxOf(vs []float64) float64 {
	m := math.NaN()
	for _, v := range vs {
		if math.IsNaN(m) || v > m {
			m = v
		}
	}
	return m
}

func nsToFloat(ns []int64, per time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / float64(per)
	}
	return out
}

// ratio is a/b, 0 when b is 0: a layer a workload never enters reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapBytes reads the live+unswept heap object bytes without stopping the
// world (runtime.ReadMemStats would, every 100 ms, inside the measurement).
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// memCounters snapshots the allocation counters the go.* metrics are
// differences of. ReadMemStats stops the world, so it runs only at the
// edges of a traced window.
type memCounters struct {
	allocBytes, mallocs, pauseNS uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{allocBytes: m.TotalAlloc, mallocs: m.Mallocs, pauseNS: m.PauseTotalNs}
}

// runtimeLayers fills the go.* metrics of a traced window that began at
// mem0 and carried the given number of records.
func runtimeLayers(m *measurement, mem0 memCounters, records float64, heapPeak uint64) {
	mem1 := readMem()
	m.layer["go.alloc_bytes_per_record"] = ratio(float64(mem1.allocBytes-mem0.allocBytes), records)
	m.layer["go.mallocs_per_record"] = ratio(float64(mem1.mallocs-mem0.mallocs), records)
	m.layer["go.gc_pause_total_ms"] = float64(mem1.pauseNS-mem0.pauseNS) / 1e6
	m.layer["go.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
}
