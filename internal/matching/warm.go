package matching

// Warm-started exact matcher: retains Jonker-Volgenant dual potentials and
// the previous assignment across calls, re-inserting only the rows the
// caller declares dirty. See DESIGN.md §13 for the invariant catalogue.
//
// Correctness sketch. The dense solver's state after any call is a feasible
// dual pair (u, v) for cost = -weight that is tight on every assigned pair,
// over the *virtual* complete bipartite graph: columns never seen have
// v = 0 and cost 0. If the next instance differs from the previous one only
// in the edge sets of rows the caller marked dirty, then:
//
//   - clean rows' constraints u[i] + v[j] <= c(i, j) are untouched for
//     retained columns (same weights, same duals), hold for departed
//     columns because their v is reset to 0 on departure and u[i] <= 0,
//     and hold for new columns (v = 0, c = 0) for the same reason;
//   - u[i] <= 0 is not guaranteed by the algorithm when nr == nc, so any
//     retained row with u[i] > 0 is demoted to dirty, restoring the
//     invariant trivially (dirty rows are uninserted and carry no
//     constraints);
//   - clean rows that were effectively unmatched (assigned to a zero-weight
//     padding column) are also demoted to dirty: padding columns are
//     anonymous per call, so their duals cannot be retained;
//   - complementary slackness requires unmatched columns to carry v = 0.
//     Unassigning dirty rows strands their columns with stale v, so every
//     column left unmatched at seed time is reset to v = 0; raising a
//     negative v tightens the constraints of the column's incident clean
//     rows, and any row whose constraint breaks is demoted to dirty,
//     cascading (the same repair the dynamic Hungarian algorithm of
//     Mills-Tettey & Stentz performs for changed costs). The cascade
//     terminates because each demotion strictly shrinks the clean set.
//
// Re-inserting each dirty row with the standard shortest-augmenting-path
// iteration from this seeded state is then exactly the textbook incremental
// assignment step, so the result is a maximum-weight matching of the new
// instance. The *particular* matching may differ from the cold solver's
// among equal-weight optima (the insertion order differs), which is why the
// warm path is opt-in: callers that need bit-identical schedules use the
// cold solver; callers that only need optimal weight (the matcher=warm A/B
// mode) get the warm path's reuse.

// WarmState retains exact-matcher duals between MaxWeightBipartiteWarm
// calls. It is owned by the caller (one per independent call-site/α-probe),
// is self-contained (any Arena may solve against it, one at a time), and
// the zero value is ready to use. Reset invalidates the retained state so
// the next call solves cold.
type WarmState struct {
	n     int
	valid bool

	u, v      []int64 // duals by node id; v persists only while active
	matchTo   []int   // col node -> matched row node, -1
	matchFrom []int   // row node -> matched col node, -1
	wasRow    []bool  // node was an active row in the previous call
	rowsPrev  []int   // previous call's active sets, for cleanup
	colsPrev  []int
}

// Reset discards the retained duals; the next warm call solves cold.
func (ws *WarmState) Reset() { ws.valid = false }

// MaxWeightBipartiteWarm solves the same problem as MaxWeightBipartite,
// warm-starting from the duals retained in ws. dirty lists the From-nodes
// whose outgoing edge weights may have changed since the call recorded in
// ws — including nodes that gained or lost edges entirely. Rows not listed
// must have identical positive-edge rows in both calls; the solver trusts
// this contract. A nil ws solves cold without retaining anything; an
// invalid ws (fresh, Reset, or instance-size change) solves cold and then
// retains.
//
// The returned matching has exactly the maximum weight (oracle-pinned in
// tests against the cold solvers) but may be a different equal-weight
// optimum than the cold paths produce; see the package comment in warm.go.
// The returned slice is valid until the next call on the arena.
func (a *Arena) MaxWeightBipartiteWarm(n int, edges []Edge, ws *WarmState, dirty []int) ([]Edge, int64) {
	a.Stats.WarmCalls++
	if ws == nil {
		a.Stats.WarmMisses++
		return a.MaxWeightBipartite(n, edges)
	}
	capBefore := a.exactCap()
	a.Stats.ExactCalls++
	cold := !ws.valid || ws.n != n
	if cold {
		a.Stats.WarmMisses++
		ws.n = n
		ws.u = growInt64s(ws.u, n)
		ws.v = growInt64s(ws.v, n)
		for i := 0; i < n; i++ {
			ws.u[i], ws.v[i] = 0, 0
		}
		ws.matchTo = growInts(ws.matchTo, n)
		ws.matchFrom = growInts(ws.matchFrom, n)
		for i := 0; i < n; i++ {
			ws.matchTo[i], ws.matchFrom[i] = -1, -1
		}
		ws.wasRow = growBools(ws.wasRow, n)
		for i := 0; i < n; i++ {
			ws.wasRow[i] = false
		}
		ws.rowsPrev, ws.colsPrev = ws.rowsPrev[:0], ws.colsPrev[:0]
	} else {
		a.Stats.WarmHits++
	}

	nr, ncReal := a.compactExact(n, edges)
	if nr == 0 {
		// Optimal matching is empty; retire all retained state.
		for _, node := range ws.rowsPrev {
			ws.wasRow[node] = false
			ws.matchFrom[node] = -1
		}
		for _, node := range ws.colsPrev {
			ws.v[node] = 0
			ws.matchTo[node] = -1
		}
		ws.rowsPrev, ws.colsPrev = ws.rowsPrev[:0], ws.colsPrev[:0]
		ws.valid = true
		a.restoreIDMaps()
		a.exactDone(capBefore)
		return nil, 0
	}
	a.Stats.ExactRows += int64(nr)
	nc := ncReal
	if nc < nr {
		nc = nr
	}
	a.prepDense(edges, nr, nc)

	// Classify rows. A row is clean only when every retained invariant
	// holds: it was active, the caller did not flag it, its retained dual
	// is feasible against fresh columns (u <= 0), and it held a recorded
	// positive-weight match whose column is still active.
	a.warmDirty = growBools(a.warmDirty, nr+1)
	dirtyRow := a.warmDirty[:nr+1]
	for i := range dirtyRow {
		dirtyRow[i] = false
	}
	if cold {
		for i := 1; i <= nr; i++ {
			dirtyRow[i] = true
		}
	} else {
		for _, f := range dirty {
			if f >= 0 && f < n && a.rowID[f] >= 0 {
				dirtyRow[a.rowID[f]+1] = true
			}
		}
		for i, node := range a.rows {
			if dirtyRow[i+1] {
				continue
			}
			c := -1
			if ws.wasRow[node] && ws.u[node] <= 0 {
				c = ws.matchFrom[node]
			}
			if c < 0 || a.colID[c] < 0 || ws.matchTo[c] != node {
				dirtyRow[i+1] = true
			}
		}
	}

	// Seed duals and assignment from the retained state (prepDense zeroed
	// them). Padding columns keep v = 0. rowMatch tracks the seeded
	// row->column assignment for the cascade below.
	u, v, p := a.u, a.v, a.p
	a.warmRowMatch = growInts(a.warmRowMatch, nr+1)
	rowMatch := a.warmRowMatch
	for i := range rowMatch {
		rowMatch[i] = 0
	}
	for i, node := range a.rows {
		if !dirtyRow[i+1] {
			u[i+1] = ws.u[node]
		}
	}
	for j, node := range a.cols {
		v[j+1] = ws.v[node]
		f := ws.matchTo[node]
		if f >= 0 && a.rowID[f] >= 0 && !dirtyRow[a.rowID[f]+1] {
			p[j+1] = a.rowID[f] + 1
			rowMatch[a.rowID[f]+1] = j + 1
		}
	}

	// Restore the unmatched-column invariant: every column without a seeded
	// assignment must have v = 0 (complementary slackness). Raising a
	// negative v can break an incident clean row's constraint
	// u[i] + v[j] <= -w(i, j); such rows are demoted to dirty, freeing
	// their columns, which may cascade.
	if !cold {
		a.warmResetColumns(nr, ncReal, nc)
	}
	reused := 0
	for i := 1; i <= nr; i++ {
		if !dirtyRow[i] {
			reused++
		}
	}
	a.Stats.WarmRowsReused += int64(reused)

	var rounds int64
	for i := 1; i <= nr; i++ {
		if dirtyRow[i] {
			rounds += a.denseInsertRow(i, nc)
		}
	}
	a.Stats.AugmentRounds += rounds

	// Record the final state back into ws, clearing departed nodes first so
	// a node that leaves and later returns re-enters as new.
	for _, node := range ws.rowsPrev {
		ws.wasRow[node] = false
		ws.matchFrom[node] = -1
	}
	for _, node := range ws.colsPrev {
		ws.v[node] = 0
		ws.matchTo[node] = -1
	}
	for i, node := range a.rows {
		ws.wasRow[node] = true
		ws.u[node] = u[i+1]
		ws.matchFrom[node] = -1
	}
	for j, node := range a.cols {
		ws.v[node] = v[j+1]
		ws.matchTo[node] = -1
	}
	for j := 1; j <= ncReal; j++ {
		i := p[j]
		if i == 0 {
			continue
		}
		if wt := a.w[(i-1)*nc+(j-1)]; wt > 0 {
			ws.matchTo[a.cols[j-1]] = a.rows[i-1]
			ws.matchFrom[a.rows[i-1]] = a.cols[j-1]
		}
	}
	ws.rowsPrev = append(ws.rowsPrev[:0], a.rows...)
	ws.colsPrev = append(ws.colsPrev[:0], a.cols...)
	ws.valid = true

	a.restoreIDMaps()
	out, total := a.extractExact(nc)
	a.exactDone(capBefore)
	return out, total
}

// warmResetColumns restores the complementary-slackness invariant on the
// seeded warm state: every unmatched real column must carry v = 0. Raising
// a negative v tightens u[i] + v[j] <= -w(i, j) for the column's incident
// clean rows; rows whose constraint breaks are demoted to dirty (u reset,
// assignment released), which can strand further columns — the repair runs
// to a fixpoint. Lowering a positive v only relaxes constraints and needs
// no checks. nr/ncReal are the compacted counts, nc the padded column count
// (the dense matrix stride).
func (a *Arena) warmResetColumns(nr, ncReal, nc int) {
	u, v, p, w := a.u, a.v, a.p, a.w
	dirtyRow := a.warmDirty[:nr+1]
	rowMatch := a.warmRowMatch
	a.warmDone = growBools(a.warmDone, nc+1)
	done := a.warmDone[:nc+1]
	for j := range done {
		done[j] = false
	}
	queue := a.warmQueue[:0]
	for j := 1; j <= ncReal; j++ {
		if p[j] == 0 && v[j] != 0 {
			queue = append(queue, j)
			done[j] = true
		}
	}
	for len(queue) > 0 {
		j := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if v[j] < 0 {
			for i := 1; i <= nr; i++ {
				if dirtyRow[i] {
					continue
				}
				if wt := w[(i-1)*nc+(j-1)]; u[i] > -wt {
					dirtyRow[i] = true
					u[i] = 0
					if jj := rowMatch[i]; jj != 0 {
						p[jj] = 0
						rowMatch[i] = 0
						if v[jj] != 0 && !done[jj] {
							queue = append(queue, jj)
							done[jj] = true
						}
					}
				}
			}
		}
		v[j] = 0
	}
	a.warmQueue = queue[:0]
}
