package matching

import (
	"math/rand"
	"testing"
)

// mutableInstance evolves a bipartite instance under row-granular edits,
// tracking exactly which From-nodes changed — the dirty contract a warm
// caller must honor.
type mutableInstance struct {
	n     int
	byRow [][]Edge
}

func newMutableInstance(rng *rand.Rand, n int, density float64) *mutableInstance {
	mi := &mutableInstance{n: n, byRow: make([][]Edge, n)}
	for f := 0; f < n; f++ {
		mi.mutateRow(rng, f, density)
	}
	return mi
}

// mutateRow redraws row f's outgoing edges and returns f as dirty.
func (mi *mutableInstance) mutateRow(rng *rand.Rand, f int, density float64) {
	row := mi.byRow[f][:0]
	for t := 0; t < mi.n; t++ {
		if rng.Float64() < density {
			row = append(row, Edge{From: f, To: t, Weight: rng.Int63n(50) - 5})
		}
	}
	mi.byRow[f] = row
}

func (mi *mutableInstance) edges() []Edge {
	var all []Edge
	for _, row := range mi.byRow {
		all = append(all, row...)
	}
	return all
}

// TestWarmMatchesColdAcrossMutations is the warm-start oracle pin: a chain
// of warm solves over an evolving instance, with honest dirty sets, must
// report the same optimal weight as a cold solve of every snapshot —
// including steps where rows vanish, reappear, or the instance empties.
func TestWarmMatchesColdAcrossMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{3, 8, 20, 64} {
		var warm, cold Arena
		var ws WarmState
		mi := newMutableInstance(rng, n, 0.3)
		var dirty []int
		for step := 0; step < 60; step++ {
			edges := mi.edges()
			wm, ww := warm.MaxWeightBipartiteWarm(n, edges, &ws, dirty)
			_, cw := cold.MaxWeightBipartite(n, edges)
			if ww != cw {
				t.Fatalf("n=%d step %d: warm weight %d != cold %d (dirty %v)", n, step, ww, cw, dirty)
			}
			checkValidMatching(t, n, edges, wm, ww)

			// Mutate a few rows for the next step; occasionally clear a row
			// entirely or empty the whole instance.
			dirty = dirty[:0]
			k := 1 + rng.Intn(3)
			if step%17 == 16 {
				for f := 0; f < n; f++ {
					mi.byRow[f] = mi.byRow[f][:0]
					dirty = append(dirty, f)
				}
				continue
			}
			for i := 0; i < k; i++ {
				f := rng.Intn(n)
				if rng.Float64() < 0.2 {
					mi.byRow[f] = mi.byRow[f][:0]
				} else {
					mi.mutateRow(rng, f, 0.3)
				}
				dirty = append(dirty, f)
			}
		}
		if ws := warm.Stats; ws.WarmHits == 0 || ws.WarmRowsReused == 0 {
			t.Fatalf("n=%d: warm chain never reused state: %+v", n, ws)
		}
	}
}

// TestWarmAllDirtyEqualsDenseCold pins the degenerate contract: marking
// every row dirty must reproduce the cold solve bit-identically
// (same insertion order, same seeds).
func TestWarmAllDirtyEqualsDenseCold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var warm, cold Arena
	var ws WarmState
	all := make([]int, 40)
	for i := range all {
		all[i] = i
	}
	for trial := 0; trial < 50; trial++ {
		edges := randInstance(rng, 40, 0.2, 100)
		wm, ww := warm.MaxWeightBipartiteWarm(40, edges, &ws, all)
		dm, dw := cold.MaxWeightBipartite(40, edges)
		if ww != dw || len(wm) != len(dm) {
			t.Fatalf("trial %d: warm all-dirty diverged: %d/%d vs %d/%d", trial, ww, len(wm), dw, len(dm))
		}
		for i := range wm {
			if wm[i] != dm[i] {
				t.Fatalf("trial %d edge %d: %+v vs %+v", trial, i, wm[i], dm[i])
			}
		}
	}
}

// TestWarmStateFallbacks covers nil state, Reset, and instance-size
// changes: all must solve cold (and count as misses) yet stay correct.
func TestWarmStateFallbacks(t *testing.T) {
	edges := []Edge{{0, 1, 4}, {1, 0, 3}, {0, 0, 2}}
	var a Arena
	if _, w := a.MaxWeightBipartiteWarm(2, edges, nil, nil); w != 7 {
		t.Fatalf("nil state: weight %d", w)
	}
	if a.Stats.WarmCalls != 1 || a.Stats.WarmMisses != 1 {
		t.Fatalf("nil state miss accounting: %+v", a.Stats)
	}
	var ws WarmState
	a.MaxWeightBipartiteWarm(2, edges, &ws, nil) // cold: invalid state
	if a.Stats.WarmMisses != 2 {
		t.Fatalf("fresh state should miss: %+v", a.Stats)
	}
	a.MaxWeightBipartiteWarm(2, edges, &ws, nil) // hit: nothing dirty
	if a.Stats.WarmHits != 1 {
		t.Fatalf("second call should hit: %+v", a.Stats)
	}
	if _, w := a.MaxWeightBipartiteWarm(5, edges, &ws, nil); w != 7 {
		t.Fatalf("size change: weight %d", w)
	}
	if a.Stats.WarmMisses != 3 {
		t.Fatalf("size change should miss: %+v", a.Stats)
	}
	ws.Reset()
	a.MaxWeightBipartiteWarm(5, edges, &ws, nil)
	if a.Stats.WarmMisses != 4 {
		t.Fatalf("reset state should miss: %+v", a.Stats)
	}
}

// TestWarmSharedAcrossArenas pins that WarmState is self-contained: a
// state recorded by one arena must warm a different arena correctly.
func TestWarmSharedAcrossArenas(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a1, a2, cold Arena
	var ws WarmState
	mi := newMutableInstance(rng, 16, 0.4)
	a1.MaxWeightBipartiteWarm(16, mi.edges(), &ws, nil)
	mi.mutateRow(rng, 4, 0.4)
	edges := mi.edges()
	_, ww := a2.MaxWeightBipartiteWarm(16, edges, &ws, []int{4})
	_, cw := cold.MaxWeightBipartite(16, edges)
	if ww != cw {
		t.Fatalf("cross-arena warm weight %d != cold %d", ww, cw)
	}
	if a2.Stats.WarmHits != 1 {
		t.Fatalf("cross-arena call should hit: %+v", a2.Stats)
	}
}
