package diff

import (
	"math/rand"
	"testing"

	"octopus/internal/algo"
	"octopus/internal/core"
	"octopus/internal/verify"
)

// TestMatcherDifferentialEquivalence pins the exact-matcher modes across
// the whole registry on shared random instances:
//
//   - par=4 must reproduce the default run bit-for-bit — same schedule
//     bytes, same claims, same metrics. The parallel α evaluation is
//     documented as output-invariant; this is the harness-level
//     enforcement of that contract, mirroring the observability on/off
//     suite.
//   - matcher=warm is documented quality-equal, not bit-identical (it may
//     pick a different equal-weight optimum per iteration, so schedules
//     may diverge): every warm run must still pass the full independent
//     verifier with the planner's own claimed metrics, and must be
//     deterministic run to run. The per-call equal-weight pin of the warm
//     solver against the cold one lives in internal/matching's oracle
//     and property tests.
//
// Algorithms that take no matcher (maxweight, rotornet, hybrid, ub, ...)
// are covered too: for them every variant is the plain run, so the
// bit-identity assertion is exact by construction.
func TestMatcherDifferentialEquivalence(t *testing.T) {
	instances := 36
	if testing.Short() {
		instances = 12
	}
	variants := []struct {
		name string
		bit  bool // must be bit-identical to the default run
		prep func(p algo.Params) algo.Params
	}{
		{"par4", true, func(p algo.Params) algo.Params { p.Parallelism = 4; return p }},
		{"warm", false, func(p algo.Params) algo.Params { p.Matcher = core.MatcherWarm; return p }},
	}
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for checked < instances {
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		checked++
		for _, a := range algo.Registry() {
			base := algo.Params{Window: inst.Window, Delta: inst.Delta, KeepTrace: true}
			ref, err := a.Run(inst.G, inst.Load, base)
			if err != nil {
				t.Fatalf("instance %d: %s: %v", checked, a.Name(), err)
			}
			refFP, err := (&Outcome{Outcome: ref}).Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			for _, vr := range variants {
				out, err := a.Run(inst.G, inst.Load, vr.prep(base))
				if err != nil {
					t.Fatalf("instance %d: %s/%s: %v", checked, a.Name(), vr.name, err)
				}
				o := &Outcome{Outcome: out}
				fp, err := o.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if vr.bit {
					if fp != refFP {
						t.Errorf("instance %d: %s/%s diverged from the default run", checked, a.Name(), vr.name)
					}
					continue
				}
				// Quality-equal variant: independently verified and
				// deterministic, but free to pick another optimum.
				if _, err := o.Check(); err != nil {
					t.Errorf("instance %d: %s/%s failed verification: %v", checked, a.Name(), vr.name, err)
				}
				again, err := a.Run(inst.G, inst.Load, vr.prep(base))
				if err != nil {
					t.Fatal(err)
				}
				fp2, err := (&Outcome{Outcome: again}).Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if fp != fp2 {
					t.Errorf("instance %d: %s/%s is nondeterministic", checked, a.Name(), vr.name)
				}
				// Warm state is keyed per α and probe pruning is
				// parallelism-independent, so the warm path itself must be
				// bit-identical across worker counts even though it may
				// diverge from the cold solver.
				wp := vr.prep(base)
				wp.Parallelism = 4
				par, err := a.Run(inst.G, inst.Load, wp)
				if err != nil {
					t.Fatal(err)
				}
				fpPar, err := (&Outcome{Outcome: par}).Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if fp != fpPar {
					t.Errorf("instance %d: %s/%s par=4 diverged from par=1", checked, a.Name(), vr.name)
				}
			}
		}
	}
	t.Logf("matcher equivalence validated on %d instances × %d algorithms × %d variants",
		checked, len(algo.Registry()), len(variants))
}
