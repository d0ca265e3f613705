package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"octopus/internal/core"
	"octopus/internal/engine"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// churnSpec sizes engine-churn: mhsd's default fabric and epoch (n=24
// complete, W=1000, Δ=20, exact matching) and arrivals drawn from the
// paper's §8 synthetic model (traffic.Synthetic with
// DefaultSyntheticParams(n, W)). Each epoch draws one §8 instance, stretches
// its large flows to span largeSpan windows, and thins it to the offered
// load: a small flow arrives with probability load, a large one with
// probability load/largeSpan, so the per-epoch volume keeps the §8 70/30
// large/small split. largeSpan and cancelShare have no source in the paper
// or in measured mhsd use; they are assumptions (README.md).
type churnSpec struct {
	n, window, delta int
	epochs           int     // epochs per pass (one pass is one run_s sample)
	scripts          int     // script seeds 1..scripts, one per pass, run in whole cycles
	load             float64 // share of a §8 instance offered per epoch
	largeSpan        int     // windows a large flow's §8 volume is stretched over
	cancelShare      float64 // per-epoch probability that a live flow is cancelled
}

func churnConfig(smoke bool) churnSpec {
	c := churnSpec{n: 24, window: 1000, delta: 20, epochs: 500, scripts: 8,
		load: 0.15, largeSpan: 10, cancelShare: 0.01}
	if smoke {
		c.n, c.window, c.epochs, c.scripts = 8, 300, 40, 2
	}
	return c
}

// linkLoad is the expected hop-packets offered per epoch over the fabric's
// per-epoch link-slot capacity n·W: a §8 instance offers W packets per
// port over routes of 1–3 hops, 2 on average.
func (c churnSpec) linkLoad() float64 { return 2 * c.load }

// script is the seeded arrival script of one pass: arrivals[k] are the
// flows submitted at epoch k.
type script struct {
	g        *graph.Digraph
	arrivals [][]traffic.Flow
}

// flows is the number of flows the script submits.
func (sc script) flows() int {
	n := 0
	for _, a := range sc.arrivals {
		n += len(a)
	}
	return n
}

func (c churnSpec) script(seed int64) (script, error) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.Complete(c.n)
	s := script{g: g, arrivals: make([][]traffic.Flow, c.epochs)}
	p := traffic.DefaultSyntheticParams(c.n, c.window)
	p.CL *= c.largeSpan
	large := p.NL * c.n // Synthetic emits the large flows first
	id := 0
	for k := range s.arrivals {
		inst, err := traffic.Synthetic(g, p, rng)
		if err != nil {
			return script{}, err
		}
		for i, f := range inst.Flows {
			keep := c.load
			if i < large {
				keep /= float64(c.largeSpan)
			}
			if rng.Float64() < keep {
				id++
				f.ID = id
				s.arrivals[k] = append(s.arrivals[k], f)
			}
		}
	}
	return s, nil
}

// runEngineChurn drives engine.Pipeline directly, epoch after epoch, the
// way online.Run and mhsim do. One pass plays one script on a fresh
// pipeline. Passes cycle through the fixed script pool, starting at the
// one --seed selects, in whole cycles until the budget is spent, so every
// run plays the same scripts and its figures differ only by timing.
func runEngineChurn(o options) (*run, error) {
	c := churnConfig(o.smoke)
	r := newRun()
	r.loop = "closed, 1 caller, epochs back to back"
	r.params = map[string]any{"n": c.n, "fabric": "complete", "window": c.window, "delta": c.delta,
		"matcher": "exact", "par": 1, "epochs_per_pass": c.epochs, "scripts": c.scripts,
		"load":       "traffic.Synthetic DefaultSyntheticParams(n, W), large flows stretched and thinned",
		"load_share": c.load, "large_span_windows": c.largeSpan, "cancel_share": c.cancelShare,
		"offered_link_load": c.linkLoad()}
	cfg := engine.Config{Core: core.Options{Window: c.window, Delta: c.delta, Matcher: core.MatcherExact, Parallelism: 1}}

	var reg *registry
	if o.trace {
		reg = newRegistry()
		cfg.Core.Obs = reg.observer()
	}
	sp := newSpans(o.trace)
	var st churnStats
	var setup, passes, heap []float64 // heap: each pass's peak live heap above its start
	hs := startHeapSampler()
	rt0 := readRuntime()
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	scriptSeed := func(pass int) int64 { return (o.seed-1+int64(pass))%int64(c.scripts) + 1 }
	for pass := 0; pass < c.scripts || pass%c.scripts != 0 || time.Since(start) < budget; pass++ {
		t0 := time.Now()
		sc, err := c.script(scriptSeed(pass))
		if err != nil {
			return nil, err
		}
		p, err := engine.New(sc.g, cfg)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		// The pass records into buffers sized up front and merged after it,
		// so the heap it reports is the pipeline's growth over the pass, not
		// the benchmark's own samples.
		cur := newChurnSamples(c.epochs, sc.flows())
		runtime.GC()
		hs.cut()         // drop set-up
		base := hs.cut() // live heap at the pass's start
		t1 := time.Now()
		if err := st.pass(r, c, sc, p, sp, &cur, pass, scriptSeed(pass), pass < c.scripts); err != nil {
			return nil, err
		}
		passes = append(passes, time.Since(t1).Seconds())
		// The live heap is only known as of the last GC; one at the pass's
		// end, with the pipeline still live, reads its final state even
		// when no GC fell inside the pass.
		peak := hs.cut()
		runtime.GC()
		heap = append(heap, max(peak, hs.cut())-base)
		runtime.KeepAlive(p)
		st.add(&cur)
	}
	rt1 := readRuntime()
	hs.stop()
	fmt.Fprintf(os.Stderr, "engine-churn: %d passes, %d epochs in %.2fs; live %.0f, turnover %.3f, backlog max %d pkts\n",
		len(passes), len(st.epochMs), time.Since(start).Seconds(), st.live/float64(c.epochs*c.scripts),
		st.turnover/float64(c.epochs*c.scripts), st.backlogMax)

	r.metrics["setup_s"] = median(setup)
	r.samples["setup_s"] = len(setup)
	r.metrics["delivered_frac"] = st.delivered / st.offered
	if !o.trace {
		r.metrics["heap_peak_mib"] = median(heap)
		r.samples["heap_peak_mib"] = len(heap)
		r.dist("run_s", passes)
		r.dist("epoch_ms", st.epochMs)
		r.countDist("completion_epochs", st.completion)
		r.dist("complete_ms", st.completeMs)
		return r, nil
	}
	r.spans = sp
	r.dist("engine.plan_ms", st.planMs)
	r.dist("engine.commit_ms", st.commitMs)
	r.metrics["engine.submit_us.p50"] = median(st.submitUs)
	r.metrics["engine.cancel_us.p50"] = median(st.cancelUs)
	r.samples["engine.submit_us"], r.samples["engine.cancel_us"] = len(st.submitUs), len(st.cancelUs)
	r.metrics["engine.live_flows"] = st.live / float64(c.epochs*c.scripts)
	r.metrics["engine.turnover_frac"] = st.turnover / float64(c.epochs*c.scripts)
	r.runtimeMetrics(runtimeCounters{}.add(rt0, rt1), len(st.epochMs))
	reg.coreMetrics(r, len(st.epochMs))
	return r, nil
}

// churnSamples are the per-epoch and per-flow samples of one or more
// passes.
type churnSamples struct {
	epochMs, planMs, commitMs, submitUs, cancelUs []float64
	completion, completeMs                        []float64
}

// newChurnSamples sizes one pass's buffers: one sample per epoch, and at
// most one per arriving flow.
func newChurnSamples(epochs, flows int) churnSamples {
	buf := func(n int) []float64 { return make([]float64, 0, n) }
	return churnSamples{epochMs: buf(epochs), planMs: buf(epochs), commitMs: buf(epochs),
		submitUs: buf(flows), cancelUs: buf(flows), completion: buf(flows), completeMs: buf(flows)}
}

func (a *churnSamples) add(b *churnSamples) {
	a.epochMs = append(a.epochMs, b.epochMs...)
	a.planMs = append(a.planMs, b.planMs...)
	a.commitMs = append(a.commitMs, b.commitMs...)
	a.submitUs = append(a.submitUs, b.submitUs...)
	a.cancelUs = append(a.cancelUs, b.cancelUs...)
	a.completion = append(a.completion, b.completion...)
	a.completeMs = append(a.completeMs, b.completeMs...)
}

// churnStats accumulates engine-churn's samples over passes. Quality
// figures (completion epochs, delivered, live flows, turnover) come from
// the first cycle only: later cycles replay the same scripts. Timings,
// complete_ms included, come from every pass.
type churnStats struct {
	churnSamples
	live, turnover     float64
	backlogMax         int
	delivered, offered float64 // offered net of cancels
}

func (st *churnStats) pass(r *run, c churnSpec, sc script, p *engine.Pipeline, sp *spans, cur *churnSamples, pass int, seed int64, first bool) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	type liveFlow struct{ at, size int }
	live := map[int]liveFlow{} // live arrival ID -> arrival epoch and size
	var liveIDs []int
	epochStart := make([]time.Time, c.epochs)
	commitEnd := make([]time.Time, c.epochs)
	for k := 0; k < c.epochs; k++ {
		id := int64(pass*c.epochs + k)
		root := sp.begin("epoch", id, -1)
		epochStart[k] = time.Now()
		liveAtStart := len(live)
		// Cancel each flow live at the epoch's start with probability
		// cancelShare, drawn in ID order.
		liveIDs = liveIDs[:0]
		for fid := range live {
			liveIDs = append(liveIDs, fid)
		}
		sort.Ints(liveIDs)
		nCancel, cancelMax := 0, 0
		for _, victim := range liveIDs {
			if rng.Float64() >= c.cancelShare {
				continue
			}
			s := sp.begin("engine.cancel", id, root)
			t0 := time.Now()
			p.Cancel(victim)
			cur.cancelUs = append(cur.cancelUs, float64(time.Since(t0))/1e3)
			sp.end(s)
			nCancel++
			cancelMax += live[victim].size
			delete(live, victim)
		}
		for _, f := range sc.arrivals[k] {
			s := sp.begin("engine.submit", id, root)
			t0 := time.Now()
			err := p.Submit(f, k*c.window)
			cur.submitUs = append(cur.submitUs, float64(time.Since(t0))/1e3)
			sp.end(s)
			if err != nil {
				return err
			}
			live[f.ID] = liveFlow{k, f.Size}
		}
		cancelledBefore := p.Totals().Cancelled

		s := sp.begin("engine.plan_next", id, root)
		t0 := time.Now()
		plan, err := p.PlanNext()
		t1 := time.Now()
		sp.end(s)
		if err != nil {
			return err
		}
		s = sp.begin("engine.commit", id, root)
		_, err = p.Commit(plan)
		t2 := time.Now()
		sp.end(s)
		if err != nil {
			return err
		}
		commitEnd[k] = t2
		cur.planMs = append(cur.planMs, ms(t1.Sub(t0)))
		cur.commitMs = append(cur.commitMs, ms(t2.Sub(t1)))
		cur.epochMs = append(cur.epochMs, ms(t2.Sub(t0)))
		r.attempt()

		ck := sp.begin("check", id, root)
		// Packet conservation after every commit.
		t := p.Totals()
		backlog, queued := p.BacklogPackets(), p.QueuedPackets()
		if t.Submitted != t.Delivered+t.Dropped+t.Cancelled+t.SurvivedRedundant+backlog+queued {
			r.fail(1, "engine-churn epoch %d: conservation: submitted %d != delivered %d + dropped %d + cancelled %d + survived %d + backlog %d + queued %d",
				k, t.Submitted, t.Delivered, t.Dropped, t.Cancelled, t.SurvivedRedundant, backlog, queued)
		}
		// Each victim was live, so the commit discards at least one and at
		// most all of its packets.
		if got := t.Cancelled - cancelledBefore; got < nCancel || got > cancelMax {
			r.fail(1, "engine-churn epoch %d: %d cancels discarded %d packets, want %d..%d",
				k, nCancel, got, nCancel, cancelMax)
		}
		done := 0
		comp := p.Completion()
		for fid, lf := range live {
			if e, ok := comp[fid]; ok {
				done++
				delete(live, fid)
				cur.completeMs = append(cur.completeMs, ms(commitEnd[e-1].Sub(epochStart[lf.at])))
				if first {
					cur.completion = append(cur.completion, float64(e-lf.at))
				}
			}
		}
		sp.end(ck)
		sp.end(root)
		if first {
			st.backlogMax = max(st.backlogMax, backlog)
			st.live += float64(liveAtStart)
			st.turnover += float64(len(sc.arrivals[k])+nCancel+done) / float64(max(liveAtStart, 1))
		}
	}
	if first {
		t := p.Totals()
		st.delivered += float64(t.Delivered)
		st.offered += float64(t.Submitted - t.Cancelled)
	}
	return nil
}
