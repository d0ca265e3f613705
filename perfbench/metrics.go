package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

type metricDef struct{ name, unit, better string }

// endToEnd is what a user of the scheduler sees; every workload measures
// every one of them (README.md defines each per workload). The order and
// units must match BENCHMARK.json; the package test enforces it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s.p50", "s", "lower"},
	{"run_s.p99", "s", "lower"},
	{"heap_peak_mib", "MiB", "lower"},
	{"delivered_frac", "frac", "higher"},
	{"epoch_ms.p50", "ms", "lower"},
	{"epoch_ms.p99", "ms", "lower"},
	{"completion_epochs.p50", "epochs", "lower"},
	{"completion_epochs.p99", "epochs", "lower"},
	{"complete_ms.p50", "ms", "lower"},
	{"complete_ms.p99", "ms", "lower"},
}

// selfSpans are the span names whose share of traced wall time is
// reported as self_frac.<name>.
var selfSpans = []string{
	"traffic.validate", "core.new", "core.step", "simulate.run", "check",
	"engine.submit", "engine.cancel", "engine.plan_next", "engine.commit",
	"http.post_flows", "http.delete_flow", "http.read",
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = append([]metricDef{
	{"traffic.validate_ms", "ms", "lower"},
	{"core.new_ms", "ms", "lower"},
	{"simulate.run_ms", "ms", "lower"},
	{"simulate.configs", "count", "lower"},
	{"runtime.alloc_mib", "MiB", "lower"},
	{"runtime.allocs", "count", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"core.step_ms.p50", "ms", "lower"},
	{"core.step_ms.p90", "ms", "lower"},
	{"core.steps", "count", "lower"},
	{"core.alpha_candidates_per_step", "count", "lower"},
	{"core.summary_rebuilds", "count", "lower"},
	{"matching.exact_calls", "count", "lower"},
	{"matching.exact_pruned_frac", "frac", "higher"},
	{"matching.augment_rounds", "count", "lower"},
	{"matching.greedy_calls", "count", "lower"},
	{"engine.plan_ms.p50", "ms", "lower"},
	{"engine.plan_ms.p99", "ms", "lower"},
	{"engine.commit_ms.p50", "ms", "lower"},
	{"engine.commit_ms.p99", "ms", "lower"},
	{"engine.submit_us.p50", "us", "lower"},
	{"engine.cancel_us.p50", "us", "lower"},
	{"engine.live_flows", "count", "lower"},
	{"engine.turnover_frac", "frac", "higher"},
	{"daemon.submit_ms.p50", "ms", "lower"},
	{"daemon.submit_ms.p99", "ms", "lower"},
	{"daemon.plan_ms.p50", "ms", "lower"},
	{"daemon.plan_ms.p99", "ms", "lower"},
	{"daemon.plan_step_ms.p50", "ms", "lower"},
	{"daemon.plan_step_ms.p99", "ms", "lower"},
	{"daemon.overruns", "count", "lower"},
	{"daemon.rejects", "count", "lower"},
	{"daemon.queued_packets.max", "count", "lower"},
	{"daemon.status_ms.p50", "ms", "lower"},
	{"daemon.status_ms.p99", "ms", "lower"},
	{"daemon.status_plan_p99_ratio", "ratio", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
	{"bench.gen_late_ms.p99", "ms", "lower"},
}, selfFracDefs()...)

func selfFracDefs() []metricDef {
	defs := make([]metricDef, len(selfSpans))
	for i, s := range selfSpans {
		defs[i] = metricDef{"self_frac." + s, "frac", "lower"}
	}
	return defs
}

// quantile returns the nearest-rank q-quantile of xs (NaN for none).
// +Inf entries stand for failed operations, which miss every limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// groupedQuantile returns the q-quantile of whole-number samples read as
// grouped data: each value v stands for the interval [v-0.5, v+0.5), over
// which its samples are spread evenly (Python's statistics.median_grouped
// does the same for the median). The nearest rank jumps a whole unit when
// the share of samples at or below a value crosses q; this moves with that
// share instead.
func groupedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	v := s[max(0, min(int(math.Ceil(q*n))-1, len(s)-1))]
	if math.IsInf(v, 0) {
		return v
	}
	below := sort.SearchFloat64s(s, v)
	upTo := sort.SearchFloat64s(s, math.Nextafter(v, math.Inf(1)))
	return v - 0.5 + (q*n-float64(below))/float64(upTo-below)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler polls the runtime's live heap (as of the last GC) and
// keeps the peak of each interval between cuts.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{done: make(chan struct{})}
	hs.wg.Add(1)
	go func() {
		defer hs.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			hs.sample()
			select {
			case <-hs.done:
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

func (hs *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	hs.mu.Lock()
	hs.peak = max(hs.peak, s[0].Value.Uint64())
	hs.mu.Unlock()
}

// cut returns the peak in MiB since the previous cut and starts the next
// interval.
func (hs *heapSampler) cut() float64 {
	hs.sample()
	hs.mu.Lock()
	defer hs.mu.Unlock()
	p := hs.peak
	hs.peak = 0
	return float64(p) / (1 << 20)
}

func (hs *heapSampler) stop() {
	close(hs.done)
	hs.wg.Wait()
}

// runtimeCounters snapshots the allocation and GC CPU counters.
type runtimeCounters struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// add returns c plus the growth from a to b.
func (c runtimeCounters) add(a, b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		c.allocBytes + b.allocBytes - a.allocBytes, c.allocObjs + b.allocObjs - a.allocObjs,
		c.gcCPU + b.gcCPU - a.gcCPU, c.totalCPU + b.totalCPU - a.totalCPU,
	}
}

// runtimeMetrics stores the per-op allocation and the GC share of CPU
// from counter growth d over ops operations.
func (r *run) runtimeMetrics(d runtimeCounters, ops int) {
	n := float64(max(ops, 1))
	r.metrics["runtime.alloc_mib"] = float64(d.allocBytes) / (1 << 20) / n
	r.metrics["runtime.allocs"] = float64(d.allocObjs) / n
	if d.totalCPU > 0 {
		r.metrics["runtime.gc_cpu_frac"] = d.gcCPU / d.totalCPU
	}
}
