package matching

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randBipartite(rng *rand.Rand, n, maxW int) []Edge {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Intn(2) == 0 {
				edges = append(edges, Edge{i, j, int64(rng.Intn(maxW + 1))})
			}
		}
	}
	return edges
}

// randInstance draws a random bipartite instance: n nodes per side, edge
// probability densityNum/densityDen, weights in [-5, maxW] (so some edges
// are non-positive and must be ignored), with occasional duplicates.
func randInstance(rng *rand.Rand, n int, density float64, maxW int64) []Edge {
	var edges []Edge
	for f := 0; f < n; f++ {
		for t := 0; t < n; t++ {
			if rng.Float64() >= density {
				continue
			}
			w := rng.Int63n(maxW+6) - 5
			edges = append(edges, Edge{From: f, To: t, Weight: w})
			if rng.Float64() < 0.05 {
				edges = append(edges, Edge{From: f, To: t, Weight: rng.Int63n(maxW + 1)})
			}
		}
	}
	// Shuffle so compaction order is not the generation order.
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// checkValidMatching asserts m is a matching over the positive edges of the
// instance: endpoints distinct, weights consistent with the (max-duplicate)
// input weight, total correct.
func checkValidMatching(t *testing.T, n int, edges, m []Edge, total int64) {
	t.Helper()
	maxW := map[[2]int]int64{}
	for _, e := range edges {
		if e.Weight <= 0 {
			continue
		}
		k := [2]int{e.From, e.To}
		if e.Weight > maxW[k] {
			maxW[k] = e.Weight
		}
	}
	usedF, usedT := map[int]bool{}, map[int]bool{}
	var sum int64
	for _, e := range m {
		if e.Weight <= 0 {
			t.Fatalf("non-positive matched edge %+v", e)
		}
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			t.Fatalf("edge endpoints out of range: %+v", e)
		}
		if usedF[e.From] || usedT[e.To] {
			t.Fatalf("matching reuses a node: %+v", e)
		}
		usedF[e.From], usedT[e.To] = true, true
		if maxW[[2]int{e.From, e.To}] != e.Weight {
			t.Fatalf("matched edge %+v does not carry the input max weight %d",
				e, maxW[[2]int{e.From, e.To}])
		}
		sum += e.Weight
	}
	if sum != total {
		t.Fatalf("reported total %d != summed %d", total, sum)
	}
}

func isBipartiteMatching(n int, m []Edge) bool {
	from := make([]bool, n)
	to := make([]bool, n)
	for _, e := range m {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return false
		}
		if from[e.From] || to[e.To] {
			return false
		}
		from[e.From] = true
		to[e.To] = true
	}
	return true
}

func TestMaxWeightBipartiteSimple(t *testing.T) {
	// 2x2: picking the diagonal (5+5) beats the single heavy edge (7).
	edges := []Edge{{0, 0, 5}, {0, 1, 7}, {1, 1, 5}}
	m, w := MaxWeightBipartite(2, edges)
	if w != 10 || len(m) != 2 {
		t.Fatalf("got w=%d m=%v, want 10 with 2 edges", w, m)
	}
}

func TestMaxWeightBipartiteEmpty(t *testing.T) {
	if m, w := MaxWeightBipartite(3, nil); m != nil || w != 0 {
		t.Fatalf("empty instance: got %v %d", m, w)
	}
	if m, w := MaxWeightBipartite(3, []Edge{{0, 1, 0}, {1, 2, -4}}); m != nil || w != 0 {
		t.Fatalf("non-positive weights: got %v %d", m, w)
	}
}

func TestMaxWeightBipartiteDuplicateEdges(t *testing.T) {
	edges := []Edge{{0, 1, 3}, {0, 1, 9}, {0, 1, 5}}
	m, w := MaxWeightBipartite(2, edges)
	if w != 9 || len(m) != 1 || m[0].Weight != 9 {
		t.Fatalf("duplicates: got %v %d", m, w)
	}
}

func TestMaxWeightBipartiteRectangular(t *testing.T) {
	// More active rows than columns forces column padding.
	edges := []Edge{{0, 5, 4}, {1, 5, 9}, {2, 5, 2}}
	m, w := MaxWeightBipartite(6, edges)
	if w != 9 || len(m) != 1 || m[0] != (Edge{1, 5, 9}) {
		t.Fatalf("got %v %d", m, w)
	}
}

func TestMaxWeightBipartiteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(5)
		edges := randBipartite(rng, n, 20)
		m, w := MaxWeightBipartite(n, edges)
		_, bw := BruteForceBipartite(n, edges)
		if w != bw {
			t.Fatalf("trial %d: hungarian=%d brute=%d edges=%v", trial, w, bw, edges)
		}
		if !isBipartiteMatching(n, m) {
			t.Fatalf("trial %d: invalid matching %v", trial, m)
		}
		if Weight(m) != w {
			t.Fatalf("trial %d: reported weight %d != edge sum %d", trial, w, Weight(m))
		}
	}
}

func TestGreedyBipartiteHalfApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		edges := randBipartite(rng, n, 50)
		gm, gw := GreedyBipartite(n, edges)
		_, ow := MaxWeightBipartite(n, edges)
		if !isBipartiteMatching(n, gm) {
			t.Fatalf("greedy produced invalid matching %v", gm)
		}
		if gw > ow {
			t.Fatalf("greedy weight %d exceeds optimum %d", gw, ow)
		}
		if 2*gw < ow {
			t.Fatalf("greedy weight %d below half of optimum %d", gw, ow)
		}
	}
}

func TestGreedyBipartiteDeterministic(t *testing.T) {
	edges := []Edge{{0, 0, 5}, {0, 1, 5}, {1, 0, 5}, {1, 1, 5}}
	m1, _ := GreedyBipartite(2, edges)
	m2, _ := GreedyBipartite(2, append([]Edge(nil), edges...))
	if len(m1) != len(m2) {
		t.Fatal("nondeterministic size")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("nondeterministic result: %v vs %v", m1, m2)
		}
	}
	// Stable radix + (From,To) input order: ties resolve to (0,0) first.
	if m1[0] != (Edge{0, 0, 5}) || m1[1] != (Edge{1, 1, 5}) {
		t.Fatalf("unexpected tie-break: %v", m1)
	}
}

func TestRadixSortEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		edges := make([]Edge, n)
		for i := range edges {
			edges[i] = Edge{i, i, rng.Int63n(1 << uint(1+rng.Intn(40)))}
		}
		got := append([]Edge(nil), edges...)
		radixSortEdges(got, make([]Edge, len(got)))
		want := append([]Edge(nil), edges...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Weight > want[j].Weight })
		for i := range want {
			if got[i].Weight != want[i].Weight {
				t.Fatalf("trial %d: radix order wrong at %d", trial, i)
			}
		}
	}
}

func TestRadixSortStability(t *testing.T) {
	edges := []Edge{{0, 0, 7}, {1, 1, 7}, {2, 2, 7}, {3, 3, 9}}
	radixSortEdges(edges, make([]Edge, len(edges)))
	if edges[0].From != 3 || edges[1].From != 0 || edges[2].From != 1 || edges[3].From != 2 {
		t.Fatalf("stability violated: %v", edges)
	}
}

func randGeneral(rng *rand.Rand, n, maxW int) []UEdge {
	var edges []UEdge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Intn(2) == 0 {
				edges = append(edges, UEdge{a, b, int64(rng.Intn(maxW + 1))})
			}
		}
	}
	return edges
}

func isGeneralMatching(n int, m []UEdge) bool {
	used := make([]bool, n)
	for _, e := range m {
		if used[e.A] || used[e.B] || e.A == e.B {
			return false
		}
		used[e.A] = true
		used[e.B] = true
	}
	return true
}

func TestGreedyGeneralHalfApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		edges := randGeneral(rng, n, 30)
		gm, gw := GreedyGeneral(n, edges)
		_, ow := BruteForceGeneral(n, edges)
		if !isGeneralMatching(n, gm) {
			t.Fatalf("invalid greedy matching %v", gm)
		}
		if gw > ow || 2*gw < ow {
			t.Fatalf("greedy %d vs optimum %d out of [ow/2, ow]", gw, ow)
		}
	}
}

func TestAugmentGeneralImproves(t *testing.T) {
	// Path a-b-c-d with weights 1, 2, 1: greedy takes {b,c}=2; the optimum
	// {a,b}+{c,d}=2... use weights 3,4,3: greedy takes 4, optimum 6.
	edges := []UEdge{{0, 1, 3}, {1, 2, 4}, {2, 3, 3}}
	gm, gw := GreedyGeneral(4, edges)
	if gw != 4 || len(gm) != 1 {
		t.Fatalf("greedy got %v %d", gm, gw)
	}
	am, aw := AugmentGeneral(4, edges, gm)
	if aw != 6 || len(am) != 2 {
		t.Fatalf("augment got %v %d, want weight 6", am, aw)
	}
	if !isGeneralMatching(4, am) {
		t.Fatalf("augmented matching invalid: %v", am)
	}
}

func TestAugmentGeneralNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(9)
		edges := randGeneral(rng, n, 30)
		gm, gw := GreedyGeneral(n, edges)
		am, aw := AugmentGeneral(n, edges, gm)
		_, ow := BruteForceGeneral(n, edges)
		if aw < gw {
			t.Fatalf("augment decreased weight: %d < %d", aw, gw)
		}
		if aw > ow {
			t.Fatalf("augment exceeded optimum: %d > %d", aw, ow)
		}
		if !isGeneralMatching(n, am) {
			t.Fatalf("augmented matching invalid: %v", am)
		}
	}
}

// Property: on permutation-structured instances (disjoint positive edges)
// greedy is exactly optimal.
func TestGreedyExactOnDisjointEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		perm := rng.Perm(n)
		var edges []Edge
		var want int64
		for i, j := range perm {
			w := int64(1 + rng.Intn(100))
			edges = append(edges, Edge{i, j, w})
			want += w
		}
		_, gw := GreedyBipartite(n, edges)
		_, ow := MaxWeightBipartite(n, edges)
		return gw == want && ow == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Hungarian weight is invariant under edge order permutation.
func TestHungarianOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(5)
		edges := randBipartite(rng, n, 40)
		_, w1 := MaxWeightBipartite(n, edges)
		shuffled := append([]Edge(nil), edges...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		_, w2 := MaxWeightBipartite(n, shuffled)
		if w1 != w2 {
			t.Fatalf("order-dependent optimum: %d vs %d", w1, w2)
		}
	}
}

func TestWeightHelpers(t *testing.T) {
	if Weight([]Edge{{0, 1, 3}, {1, 2, 4}}) != 7 {
		t.Fatal("Weight sum wrong")
	}
	if UWeight([]UEdge{{0, 1, 3}, {1, 2, 4}}) != 7 {
		t.Fatal("UWeight sum wrong")
	}
	if Weight(nil) != 0 || UWeight(nil) != 0 {
		t.Fatal("empty sums nonzero")
	}
}

func TestHungarianLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(5))
	n := 120
	edges := randBipartite(rng, n, 1000)
	m, w := MaxWeightBipartite(n, edges)
	if !isBipartiteMatching(n, m) {
		t.Fatal("invalid matching at n=120")
	}
	_, gw := GreedyBipartite(n, edges)
	if gw > w {
		t.Fatalf("greedy %d beat exact %d", gw, w)
	}
	if 2*gw < w {
		t.Fatalf("greedy %d below half of exact %d", gw, w)
	}
}

// TestExactVsBruteForce pins the cold and warm exact solvers to the
// brute-force oracle on small instances.
func TestExactVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a Arena
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		edges := randInstance(rng, n, 0.6, 9)
		_, want := BruteForceBipartite(n, edges)

		cm, cw := a.MaxWeightBipartite(n, edges)
		checkValidMatching(t, n, edges, cm, cw)
		var ws WarmState
		wm, ww := a.MaxWeightBipartiteWarm(n, edges, &ws, nil)
		if cw != want || ww != want {
			t.Fatalf("trial %d (n=%d): cold=%d warm=%d oracle=%d edges=%v",
				trial, n, cw, ww, want, edges)
		}
		checkValidMatching(t, n, edges, wm, ww)
	}
}

// TestExactBoundaries covers the all-non-positive and empty-active-set
// boundary instances on the cold and warm solvers.
func TestExactBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"nil", 4, nil},
		{"empty", 4, []Edge{}},
		{"all-non-positive", 4, []Edge{{0, 1, 0}, {1, 2, -3}, {2, 0, -1}}},
		{"n-zero", 0, nil},
	}
	var a Arena
	for _, tc := range cases {
		var ws WarmState
		for _, solve := range []func() ([]Edge, int64){
			func() ([]Edge, int64) { return a.MaxWeightBipartite(tc.n, tc.edges) },
			func() ([]Edge, int64) { return a.MaxWeightBipartiteWarm(tc.n, tc.edges, &ws, nil) },
			// Second warm call exercises the retained-empty-state path.
			func() ([]Edge, int64) { return a.MaxWeightBipartiteWarm(tc.n, tc.edges, &ws, nil) },
		} {
			m, w := solve()
			if m != nil || w != 0 {
				t.Fatalf("%s: expected empty result, got %v/%d", tc.name, m, w)
			}
		}
	}
}

// TestExactMoreRowsThanCols exercises the nc < nr padding branch (more
// distinct From-nodes than To-nodes) on the cold and warm solvers.
func TestExactMoreRowsThanCols(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 0, Weight: 5},
		{From: 1, To: 0, Weight: 7},
		{From: 2, To: 0, Weight: 6},
		{From: 3, To: 1, Weight: 2},
		{From: 4, To: 1, Weight: 1},
	}
	want := []Edge{{From: 1, To: 0, Weight: 7}, {From: 3, To: 1, Weight: 2}}
	var a Arena
	var ws WarmState
	for _, solve := range []func() ([]Edge, int64){
		func() ([]Edge, int64) { return a.MaxWeightBipartite(8, edges) },
		func() ([]Edge, int64) { return a.MaxWeightBipartiteWarm(8, edges, &ws, nil) },
	} {
		m, w := solve()
		if w != 9 || len(m) != len(want) {
			t.Fatalf("expected weight 9 from %v, got %v/%d", want, m, w)
		}
		for i := range want {
			if m[i] != want[i] {
				t.Fatalf("edge %d: got %+v, want %+v", i, m[i], want[i])
			}
		}
	}
}
