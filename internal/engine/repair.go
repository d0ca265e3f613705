package engine

import (
	"fmt"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/obs/flight"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// repairBacklog rewrites the backlog in place against the surviving fabric:
// flows keep the candidate routes that survived; flows whose every route
// died are discarded when a sibling copy of their redundancy group still
// has a live route (proactive redundancy absorbing the failure), otherwise
// rerouted onto a BFS shortest surviving path from their current position
// (reactive repair, when enabled); flows with no surviving path are
// dropped. A rerouted flow counts as stranded when it sits away from its
// arrival's recorded source; arrivals missing from arrivalSrc were admitted
// at this boundary and are still at their source. Degradation counts
// accumulate onto stat.
func repairBacklog(fabric *graph.Digraph, backlog *traffic.Load, origin, arrivalSrc map[int]int, stat *EpochStat, red *traffic.Redundancy, reactive bool, rec *flight.Recorder, epoch int) {
	// Pass 1: which redundancy groups still have a copy with a live route.
	// Computed before any repair, so reroutes never count as redundancy.
	var groupLive map[int]bool
	if !red.Empty() {
		groupLive = make(map[int]bool)
		for i := range backlog.Flows {
			f := &backlog.Flows[i]
			p, ok := red.GroupOf(origin[f.ID])
			if !ok || groupLive[p] {
				continue
			}
			for _, r := range f.Routes {
				if fabric.IsRoute(r) {
					groupLive[p] = true
					break
				}
			}
		}
	}
	kept := backlog.Flows[:0]
	for i := range backlog.Flows {
		f := backlog.Flows[i]
		alive := f.Routes[:0:0]
		for _, r := range f.Routes {
			if fabric.IsRoute(r) {
				alive = append(alive, r)
			}
		}
		switch {
		case len(alive) == len(f.Routes):
			// Fully intact: nothing to do.
		case len(alive) > 0:
			// Some candidates died; the survivors carry the flow.
			f.Routes = alive
		default:
			orig := int64(origin[f.ID])
			if p, ok := red.GroupOf(origin[f.ID]); ok && groupLive[p] {
				// A sibling copy survives with a live route: the dead
				// copy's packets are redundant, not lost.
				stat.SurvivedRedundant += f.Size
				rec.Dedup(orig, epoch, int64(f.Size))
				continue
			}
			if !reactive {
				stat.Dropped += f.Size
				rec.Dropped(orig, epoch, int64(f.Size))
				continue
			}
			r, ok := traffic.ShortestRoute(fabric, f.Src, f.Dst)
			if !ok {
				stat.Dropped += f.Size
				rec.Dropped(orig, epoch, int64(f.Size))
				continue
			}
			if f.WeightHops > 0 && r.Hops() > f.WeightHops {
				// Keep the weight override consistent with the longer
				// repaired route (weights may only get smaller).
				f.WeightHops = r.Hops()
			}
			f.Routes = []traffic.Route{r}
			stat.Rerouted += f.Size
			rec.Repaired(orig, epoch, r.Hops(), int64(f.Size))
			if src, ok := arrivalSrc[origin[f.ID]]; ok && f.Src != src {
				stat.Stranded += f.Size
				rec.Requeued(orig, epoch, f.Src, int64(f.Size))
			}
		}
		kept = append(kept, f)
	}
	backlog.Flows = kept
}

// bestCopyDelivered sums, over the redundancy groups, the cumulative
// delivery of each group's best copy: a group counts once however many of
// its copies deliver.
func bestCopyDelivered(deliveredBy map[int]int, members map[int][]int) int {
	total := 0
	for _, ids := range members {
		best := 0
		for _, id := range ids {
			if d := deliveredBy[id]; d > best {
				best = d
			}
		}
		total += best
	}
	return total
}

// auditEpoch validates the epoch's plan against the fabric it was planned
// for, independently of the scheduler's own bookkeeping. For plain plans the
// replayed delivery must match the plan's claim exactly; Octopus+ and
// chained-benefit plans keep bookkeeping a forward replay cannot reproduce,
// so only the feasibility invariants are enforced for them.
func auditEpoch(fabric *graph.Digraph, load *traffic.Load, plan *core.Result, coreOpt core.Options, epoch int) error {
	vopt := verify.Options{
		Window:    coreOpt.Window,
		Ports:     coreOpt.Ports,
		MultiHop:  coreOpt.MultiHop,
		Epsilon64: coreOpt.Epsilon64,
	}
	if !coreOpt.MultiRoute && !coreOpt.MultiHop {
		vopt.Claim = &verify.Claim{Delivered: plan.Delivered, Hops: plan.Hops, Psi: plan.Psi}
	}
	if _, err := verify.Schedule(fabric, load, plan.Schedule, vopt); err != nil {
		return fmt.Errorf("engine: epoch %d plan failed verification against the surviving fabric: %w", epoch, err)
	}
	return nil
}
