package main

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"octopus/internal/obs"
)

// registry attaches an obs.Registry to the layers of a traced in-process
// run, so the program's own octopus_core_* and octopus_match_* counters
// can be read back. A nil *registry attaches nothing.
type registry struct{ reg *obs.Registry }

func newRegistry() *registry { return &registry{obs.NewRegistry()} }

func (g *registry) observer() *obs.Observer {
	if g == nil {
		return nil
	}
	return &obs.Observer{Metrics: g.reg}
}

// coreMetrics reads the registry back through its Prometheus exposition,
// the same text mhsd serves on /metrics.
func (g *registry) coreMetrics(r *run, ops int) {
	var buf bytes.Buffer
	g.reg.WritePrometheus(&buf)
	prom, _ := parseProm(&buf)
	coreMetrics(r, ops, prom)
}

// coreMetrics derives the core and matching per-op metrics from the
// program's counters (read in-process or scraped from /metrics). Where
// the benchmark did not time Scheduler.Step itself, the step quantiles
// come from the program's octopus_core_step_ns histogram, whose base-2
// buckets make them upper bounds within a factor of 2.
func coreMetrics(r *run, ops int, prom map[string]float64) {
	value := func(name string) float64 { return prom[name] }
	n := float64(max(ops, 1))
	r.metrics["core.steps"] = value("octopus_core_iterations_total") / n
	if c := value("octopus_core_alpha_candidates_count"); c > 0 {
		r.metrics["core.alpha_candidates_per_step"] = value("octopus_core_alpha_candidates_sum") / c
	}
	r.metrics["core.summary_rebuilds"] = value("octopus_core_summary_rebuilds_total") / n
	solved, pruned := value("octopus_match_exact_calls_total"), value("octopus_match_exact_pruned_total")
	r.metrics["matching.exact_calls"] = solved / n
	if solved+pruned > 0 {
		r.metrics["matching.exact_pruned_frac"] = pruned / (pruned + solved)
	}
	r.metrics["matching.augment_rounds"] = value("octopus_match_augment_rounds_total") / n
	r.metrics["matching.greedy_calls"] = value("octopus_match_greedy_calls_total") / n
	if _, timed := r.metrics["core.step_ms.p50"]; !timed {
		r.metrics["core.step_ms.p50"] = histQuantile(prom, "octopus_core_step_ns", 0.5) / 1e6
		r.metrics["core.step_ms.p90"] = histQuantile(prom, "octopus_core_step_ns", 0.9) / 1e6
	}
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile of a Prometheus histogram (0 when empty).
func histQuantile(prom map[string]float64, name string, q float64) float64 {
	total := prom[name+"_count"]
	if total == 0 {
		return 0
	}
	var les []float64
	prefix := name + `_bucket{le="`
	for k := range prom {
		if le, ok := strings.CutPrefix(k, prefix); ok {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64); err == nil {
				les = append(les, v)
			}
		}
	}
	sort.Float64s(les)
	rank := math.Ceil(q * total)
	for _, le := range les {
		if prom[prefix+strconv.FormatFloat(le, 'f', -1, 64)+`"}`] >= rank {
			return le
		}
	}
	return 0
}

// parseProm reads the Prometheus text exposition into sample → value;
// labelled samples keep their labels in the key.
func parseProm(rd io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name, val := line[:i], line[i+1:]
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
