// Command perfbench is the repository benchmark: it runs one named
// workload against the scheduler's public layers for a fixed wall-clock
// budget, checks every output, and prints one JSON result line with the
// workload's end-to-end metrics (untraced run) or per-layer metrics
// (traced run, --trace 1).
//
//	perfbench --workload paper-n100 --seed 1 --seconds 20 --trace 0
//
// The last stdout line is the result object
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}};
// the line before it is a stamp with the host, toolchain, commit, seed,
// workload parameters, loop type and per-metric sample counts. Progress
// and the traced run's self-time table go to stderr. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // reduced instance sizes, for the package's own tests
	mhsd     string // path to a built mhsd binary (mhsd-loopback)
	outDir   string // traced-run span files and daemon scratch files
	commit   string

	// corruptPin offsets every ψ pin, so tests can prove the output
	// checks fail the run.
	corruptPin int64
}

// run is one workload's outcome.
type run struct {
	mu        sync.Mutex // guards attempted and failed
	attempted int
	failed    int
	metrics   map[string]float64
	samples   map[string]int     // sample count behind each timing metric
	tails     map[string]float64 // percentile each .p99 metric reports
	params    map[string]any     // workload parameters for the stamp
	loop      string             // "closed" or "open", with rate or client count
	spans     *spans             // traced runs only
}

func newRun() *run {
	return &run{metrics: map[string]float64{}, samples: map[string]int{}, tails: map[string]float64{}, params: map[string]any{}}
}

// attempt counts one operation.
func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail records n failed operations and logs why.
func (r *run) fail(n int, format string, args ...any) {
	r.mu.Lock()
	r.failed += n
	r.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// dist stores a timing distribution as name.p50, its median, and
// name.p99, its tail: the highest percentile up to the 99th that has at
// least ten samples beyond it (the median when none has). The stamp
// records the sample count and the tail's percentile.
func (r *run) dist(name string, xs []float64) {
	q := max(0.5, min(0.99, 1-10/float64(max(len(xs), 1))))
	r.metrics[name+".p50"] = quantile(xs, 0.50)
	r.metrics[name+".p99"] = quantile(xs, q)
	r.samples[name] = len(xs)
	r.tails[name] = q
}

// countDist is dist for whole-number samples, with grouped quantiles.
func (r *run) countDist(name string, xs []float64) {
	r.dist(name, xs)
	r.metrics[name+".p50"] = groupedQuantile(xs, 0.50)
	r.metrics[name+".p99"] = groupedQuantile(xs, r.tails[name])
}

type workload struct {
	name string
	why  string
	run  func(o options) (*run, error)
}

var workloads = []workload{
	{"paper-n100", "closed loop: offline octopus, exact matcher, at the paper's n=100 point; core and matching dominate", runPaperN100},
	{"pods-1m", "closed loop: offline octopus, greedy matcher, on the 1M-flow pod instance; init, replay and heap dominate", runPods1M},
	{"engine-churn", "closed loop over engine.Pipeline: §8-model arrivals, long-lived large flows amid mice, and cancels each epoch", runEngineChurn},
	{"mhsd-loopback", "open loop against the mhsd binary over loopback HTTP: §8-model mice submitted, cancelled and read back", runMhsdLoopback},
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (inputs are a pure function of it)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "reduced instance sizes (tests only)")
	flag.StringVar(&o.mhsd, "mhsd", "", "mhsd binary for mhsd-loopback")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for span files and daemon scratch files")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit, for the stamp")
	flag.Int64Var(&o.corruptPin, "corrupt-pin", 0, "add this to every ψ pin (tests only)")
	printPinsFlag := flag.Bool("print-pins", false, "print the pin table entries of an offline workload and exit")
	flag.Parse()
	o.trace = *traceFlag != 0
	if *printPinsFlag {
		if err := printPins(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := mainErr(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seed < 1 {
		return fmt.Errorf("seed must be positive, have %d", o.seed)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	r, err := w.run(o)
	if err != nil {
		return err
	}
	if o.trace {
		path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", o.outDir, o.workload, o.seed)
		if err := r.spans.finish(r, path, time.Since(start)); err != nil {
			return err
		}
	}
	return printResult(o, w, r)
}

// printResult checks the metric set against the declared table, then
// prints the stamp line and the result line.
func printResult(o options, w *workload, r *run) error {
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	out := map[string]metricOut{}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if (!ok || math.IsNaN(v)) && !o.trace {
			return fmt.Errorf("workload %s did not measure %s", o.workload, m.name)
		}
		if math.IsNaN(v) {
			v = 0 // a layer the workload does not exercise did no work
		}
		// A failed operation's latency is +Inf; JSON has no infinity.
		out[m.name] = metricOut{Value: min(v, math.MaxFloat64), Unit: m.unit}
	}
	for name := range r.metrics {
		if _, ok := out[name]; !ok && !o.trace {
			return fmt.Errorf("workload %s measured undeclared metric %s", o.workload, name)
		}
	}
	stamp := map[string]any{
		"perfbench":  "v1",
		"workload":   w.name,
		"why":        w.why,
		"loop":       r.loop,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"smoke":      o.smoke,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     o.commit,
		"params":     r.params,
		"samples":    r.samples,
		"tail_q":     r.tails,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(stamp); err != nil {
		return err
	}
	return enc.Encode(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   out,
	})
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
