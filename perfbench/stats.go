package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 75}

// tail returns the highest candidate percentile of xs that still has at
// least ten samples beyond it, its nearest-rank value and that sample
// count; ok is false when even the lowest candidate has fewer.
func tail(xs []float64) (pct, value float64, beyond int, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank < 1 || n-rank < 10 {
			continue
		}
		return p, s[rank-1], n - rank, true
	}
	return 0, 0, 0, false
}

// addLatency reports op_p50_ms, and op_tail_ms with its percentile and
// sample count, for the given per-operation latencies. The tail goes
// to info: it exists only on workloads with enough operations.
func addLatency(res *result, lat []time.Duration, what string) {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / 1e6
	}
	res.endToEnd["op_p50_ms"] = metric{median(ms), "ms"}
	if p, v, beyond, ok := tail(ms); ok {
		res.info["op_tail_ms"] = metric{v, "ms"}
		res.notes = append(res.notes, fmt.Sprintf(
			"op_tail_ms is p%g of %d %s latencies (%d samples beyond it)", p, len(ms), what, beyond))
	} else {
		res.notes = append(res.notes, fmt.Sprintf(
			"op_tail_ms not reported: %d %s latencies leave no percentile with 10 samples beyond it", len(ms), what))
	}
}

// runtimeStats is a sample of the Go runtime's allocation and GC
// counters.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
	gcCPU      float64
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUMetric)
	s := runtimeStats{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
	if gcCPUMetric[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPUMetric[0].Value.Float64()
	}
	return s
}

// addRuntime reports the runtime layer's work between two samples.
func addRuntime(res *result, before, after runtimeStats) {
	res.perLayer["runtime.alloc_mb"] = metric{float64(after.allocBytes-before.allocBytes) / (1 << 20), "MiB"}
	res.perLayer["runtime.gc_cycles"] = metric{float64(after.gcCycles - before.gcCycles), "count"}
	res.perLayer["runtime.gc_pause_ms"] = metric{float64(after.pauseNs-before.pauseNs) / 1e6, "ms"}
	res.perLayer["runtime.gc_cpu_s"] = metric{after.gcCPU - before.gcCPU, "s"}
}

// perUnit returns busy seconds per unit in nanoseconds, 0 when there
// were no units.
func perUnit(busyS float64, units float64) float64 {
	if units <= 0 {
		return 0
	}
	return busyS * 1e9 / units
}

// frac returns a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
