package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"octopus/internal/algo"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// offlineSpec is one offline workload: a pool of pinned instances, the
// slice of it a seed selects, and the algorithm parameters.
type offlineSpec struct {
	name     string
	pool     int // instance seeds 1..pool are pinned
	perRun   int // instances a run cycles through
	setups   int // set-up repetitions (the median is reported)
	minOps   int // ops run even past the time budget
	params   algo.Params
	describe map[string]any
	gen      func(instSeed int64) (*graph.Digraph, *traffic.Load, error)
}

// instanceSeeds returns the instance seeds a run with the given seed
// cycles through: perRun consecutive pool entries, wrapping, starting at
// pool entry seed (mod pool). Seed 1 starts at instance 1.
func (s *offlineSpec) instanceSeeds(seed int64) []int64 {
	out := make([]int64, s.perRun)
	for i := range out {
		out[i] = (seed-1+int64(i))%int64(s.pool) + 1
	}
	return out
}

// paperN100 is the paper's full-scale point (§8, Fig 10): n=100 complete,
// W=10000, Δ=20, DefaultSyntheticParams, exact matching, par=1.
func paperN100(smoke bool) *offlineSpec {
	n, w, d := 100, 10000, 20
	s := &offlineSpec{name: "paper-n100", pool: 16, perRun: 16, setups: 5, minOps: 16}
	if smoke {
		n, w, d = 12, 600, 10
		s.pool, s.perRun, s.setups, s.minOps = 4, 4, 2, 4
	}
	s.params = algo.Params{Window: w, Delta: d, Matcher: core.MatcherExact, Parallelism: 1}
	s.describe = map[string]any{"algo": "octopus", "matcher": "exact", "par": 1, "n": n, "fabric": "complete",
		"window": w, "delta": d, "load": "DefaultSyntheticParams", "instances_per_run": s.perRun, "pool": s.pool}
	s.gen = func(instSeed int64) (*graph.Digraph, *traffic.Load, error) {
		g := graph.Complete(n)
		load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(n, w), rand.New(rand.NewSource(instSeed)))
		return g, load, err
	}
	return s
}

// pods1M is the BENCH_pr10.json reference point: a 32-pod 1024-node fabric,
// the §8 pod workload scaled to 1M flows, W=512, Δ=4, greedy matching at
// the default parallelism (GOMAXPROCS, so at most nproc planner
// threads); instance seed 1 is the BENCH_pr10.json instance itself.
func pods1M(smoke bool) *offlineSpec {
	pods, n, w, d, flows := 32, 1024, 512, 4, 1_000_000
	s := &offlineSpec{name: "pods-1m", pool: 4, perRun: 1, setups: 5, minOps: 5}
	if smoke {
		pods, n, w, d, flows = 4, 32, 128, 4, 2000
		s.setups = 2
	}
	s.params = algo.Params{Window: w, Delta: d, Matcher: core.MatcherGreedy}
	s.describe = map[string]any{"algo": "octopus", "matcher": "greedy", "par": "GOMAXPROCS", "n": n, "pods": pods,
		"window": w, "delta": d, "flows": flows, "pool": s.pool}
	s.gen = func(instSeed int64) (*graph.Digraph, *traffic.Load, error) {
		podSize, err := graph.PodDims(n, pods)
		if err != nil {
			return nil, nil, err
		}
		// The mhsbench -bench-pods sizing: per-pod flow counts scaled to
		// the target, keeping the 1:3 large:small mix.
		pp := traffic.DefaultPodParams(pods, podSize, w)
		perPod := max(4, flows/pods)
		pp.LargePerPod = perPod / 4
		pp.SmallPerPod = perPod - perPod/4
		pp.LargeTotal = max(pp.LargeTotal, pp.LargePerPod)
		pp.SmallTotal = max(pp.SmallTotal, pp.SmallPerPod)
		store, err := traffic.PodSynthetic(pp, rand.New(rand.NewSource(instSeed)))
		if err != nil {
			return nil, nil, err
		}
		return pp.Fabric(), store.Materialize(nil), nil
	}
	return s
}

func runPaperN100(o options) (*run, error) { return runOffline(o, paperN100(o.smoke)) }
func runPods1M(o options) (*run, error)    { return runOffline(o, pods1M(o.smoke)) }

type instance struct {
	seed int64
	g    *graph.Digraph
	load *traffic.Load
}

// runOffline is the offline closed loop: generate the run's instances
// (set-up, repeated, median reported), then run one op after another,
// cycling through them in whole cycles, until the budget is spent and at
// least minOps ran. An op is one algo.Run untraced, or the same pipeline
// called layer by layer under spans when traced. Each op starts from a
// collected heap, so GC debt from one op is not charged to the next.
func runOffline(o options, s *offlineSpec) (*run, error) {
	r := newRun()
	r.params = s.describe
	r.loop = "closed, 1 client, ops back to back"
	seeds := s.instanceSeeds(o.seed)
	r.params["instance_seeds"] = seeds

	var insts []instance
	var setup []float64
	for rep := 0; rep < s.setups; rep++ {
		insts = nil // let the previous copy go before timing the next
		t0 := time.Now()
		for _, is := range seeds {
			g, load, err := s.gen(is)
			if err != nil {
				return nil, err
			}
			insts = append(insts, instance{is, g, load})
		}
		setup = append(setup, time.Since(t0).Seconds())
		if o.trace {
			break
		}
	}
	r.metrics["setup_s"] = median(setup)
	r.samples["setup_s"] = len(setup)
	fmt.Fprintf(os.Stderr, "%s: set-up %.3fs (median of %d)\n", s.name, median(setup), len(setup))

	a, _ := algo.Lookup("octopus")
	sp := newSpans(o.trace)
	var (
		runT, complete         []float64
		validate, coreNew, sim []float64
		simConfigs             []float64
		stepMs                 []float64
	)
	var reg *registry
	if o.trace {
		reg = newRegistry()
	}
	hs := startHeapSampler()
	var heap []float64        // each op's peak live heap
	var rtOps runtimeCounters // summed over the traced ops, checks excluded
	measured := map[int64]*algo.Outcome{}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	ops := 0
	for ; ops < s.minOps || ops%len(insts) != 0 || time.Since(start) < budget; ops++ {
		in := insts[ops%len(insts)]
		r.attempt()
		runtime.GC()
		hs.cut() // drop the previous op's check
		var out *algo.Outcome
		var err error
		if !o.trace {
			t0 := time.Now()
			err = in.load.Validate(in.g)
			t1 := time.Now()
			if err == nil {
				out, err = a.Run(in.g, in.load, s.params)
			}
			t2 := time.Now()
			runT = append(runT, t2.Sub(t1).Seconds())
			complete = append(complete, ms(t2.Sub(t0)))
			heap = append(heap, hs.cut())
			fmt.Fprintf(os.Stderr, "%s: op %d instance %d: validate %.1f ms, algo.Run %.3f s\n",
				s.name, ops, in.seed, ms(t1.Sub(t0)), t2.Sub(t1).Seconds())
			checkOffline(o, r, s, in, out, err)
		} else {
			root := sp.begin("op", int64(ops), -1)
			var lt layerTimes
			rt0 := readRuntime()
			out, lt, err = tracedOffline(sp, root, int64(ops), a.(algo.CorePlanner), in, s.params, reg)
			rtOps = rtOps.add(rt0, readRuntime())
			validate = append(validate, ms(lt.validate))
			coreNew = append(coreNew, ms(lt.coreNew))
			sim = append(sim, ms(lt.sim))
			stepMs = append(stepMs, lt.steps...)
			if out != nil {
				simConfigs = append(simConfigs, float64(out.ConfigsReplayed))
			}
			ck := sp.begin("check", int64(ops), root)
			checkOffline(o, r, s, in, out, err)
			sp.end(ck)
			sp.end(root)
		}
		if err == nil && measured[in.seed] == nil {
			measured[in.seed] = out
		}
	}
	hs.stop()
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.2fs\n", s.name, ops, time.Since(start).Seconds())

	// Quality over the run's distinct instances, each counted once.
	var delivered, total int
	for _, out := range measured {
		delivered += out.Delivered
		total += out.Total
	}
	if total > 0 {
		r.metrics["delivered_frac"] = float64(delivered) / float64(total)
	}
	if !o.trace {
		r.metrics["heap_peak_mib"] = median(heap)
		r.samples["heap_peak_mib"] = len(heap)
		r.dist("run_s", runT)
		epochMs := make([]float64, len(runT))
		for i, v := range runT {
			epochMs[i] = v * 1000
		}
		r.dist("epoch_ms", epochMs)
		r.dist("complete_ms", complete)
		// The whole offline load is admitted at epoch 0 and planned in a
		// single window, so each flow it completes completes in epoch 1.
		r.metrics["completion_epochs.p50"] = 1
		r.metrics["completion_epochs.p99"] = 1
		return r, nil
	}
	r.spans = sp
	r.metrics["traffic.validate_ms"] = median(validate)
	r.metrics["core.new_ms"] = median(coreNew)
	r.metrics["simulate.run_ms"] = median(sim)
	r.metrics["simulate.configs"] = median(simConfigs)
	r.metrics["core.step_ms.p50"] = quantile(stepMs, 0.5)
	r.metrics["core.step_ms.p90"] = quantile(stepMs, 0.9)
	r.samples["core.step_ms"] = len(stepMs)
	r.runtimeMetrics(rtOps, ops)
	reg.coreMetrics(r, ops)
	return r, nil
}

type layerTimes struct {
	validate, coreNew, sim time.Duration
	steps                  []float64 // ms per Scheduler.Step
}

// tracedOffline runs the octopus pipeline that algo.Run drives — the
// variant's CoreOptions mapping, core.New, the Step loop, simulate.Run —
// one layer call at a time under spans, preceded by a standalone
// traffic.Load.Validate (the check core.New and simulate.Run each repeat
// internally), and returns the same Outcome, plan claim included, so
// Outcome.Verify checks traced and untraced ops alike.
func tracedOffline(sp *spans, root int32, id int64, a algo.CorePlanner, in instance, p algo.Params, reg *registry) (*algo.Outcome, layerTimes, error) {
	var lt layerTimes
	timed := func(name string, f func() error) (time.Duration, error) {
		i := sp.begin(name, id, root)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		sp.end(i)
		return d, err
	}
	var err error
	if lt.validate, err = timed("traffic.validate", func() error { return in.load.Validate(in.g) }); err != nil {
		return nil, lt, err
	}
	p.Obs = reg.observer()
	load, opt, err := a.CoreOptions(in.load, p)
	if err != nil {
		return nil, lt, err
	}
	var sch *core.Scheduler
	if lt.coreNew, err = timed("core.new", func() (e error) { sch, e = core.New(in.g, load, opt); return e }); err != nil {
		return nil, lt, err
	}
	for {
		var ok bool
		d, err := timed("core.step", func() (e error) { _, ok, e = sch.Step(); return e })
		if err != nil {
			return nil, lt, err
		}
		if !ok {
			break
		}
		lt.steps = append(lt.steps, ms(d))
	}
	res, err := sch.Run() // the loop is done: Run only assembles the result
	if err != nil {
		return nil, lt, err
	}
	var simRes *simulate.Result
	lt.sim, err = timed("simulate.run", func() (e error) {
		simRes, e = simulate.Run(in.g, load, res.Schedule, simulate.Options{Window: opt.Window, MultiHop: opt.MultiHop, Ports: opt.Ports,
			Epsilon64: opt.Epsilon64, Obs: opt.Obs})
		return e
	})
	if err != nil {
		return nil, lt, err
	}
	out := &algo.Outcome{
		Algo: "octopus", Fabric: in.g, Load: load, Schedule: res.Schedule,
		Plan:      &algo.PlanInfo{Iterations: res.Iterations, Delivered: res.Delivered, Hops: res.Hops, Psi: res.Psi},
		Delivered: simRes.Delivered, Total: simRes.TotalPackets, Hops: simRes.Hops, Psi: simRes.Psi,
		ActiveLinkSlots: simRes.ActiveLinkSlots, Reconfigs: len(res.Schedule.Configs),
		ConfigsReplayed: simRes.Configs, SlotsUsed: simRes.SlotsUsed, Measured: true,
	}
	out.VerifyOpt = verify.Options{Window: opt.Window, Ports: opt.Ports, Epsilon64: opt.Epsilon64,
		Claim: &verify.Claim{Delivered: res.Delivered, Hops: res.Hops, Psi: res.Psi}}
	return out, lt, nil
}

// checkOffline applies the offline output checks to one op: no error, ψ
// and delivered equal the instance's pin, and Outcome.Verify passes.
func checkOffline(o options, r *run, s *offlineSpec, in instance, out *algo.Outcome, err error) {
	if err != nil {
		r.fail(1, "%s instance %d: %v", s.name, in.seed, err)
		return
	}
	p, ok := lookupPin(s.name, o.smoke, in.seed)
	if !ok {
		r.fail(1, "%s instance %d has no pin", s.name, in.seed)
		return
	}
	if out.Psi != p.psi+o.corruptPin || out.Delivered != p.delivered {
		r.fail(1, "%s instance %d: psi=%d delivered=%d, pinned psi=%d delivered=%d",
			s.name, in.seed, out.Psi, out.Delivered, p.psi+o.corruptPin, p.delivered)
		return
	}
	if _, err := out.Verify(); err != nil {
		r.fail(1, "%s instance %d: Outcome.Verify: %v", s.name, in.seed, err)
	}
}

// printPins runs octopus on every pooled instance of an offline workload
// and prints the pin table entries.
func printPins(o options) error {
	var s *offlineSpec
	switch o.workload {
	case "paper-n100":
		s = paperN100(o.smoke)
	case "pods-1m":
		s = pods1M(o.smoke)
	default:
		return fmt.Errorf("workload %s has no pins", o.workload)
	}
	a, _ := algo.Lookup("octopus")
	for is := int64(1); is <= int64(s.pool); is++ {
		g, load, err := s.gen(is)
		if err != nil {
			return err
		}
		out, err := a.Run(g, load, s.params)
		if err != nil {
			return err
		}
		fmt.Printf("\t\t%d: {%d, %d},\n", is, out.Psi, out.Delivered)
	}
	return nil
}
