// Package online schedules dynamically arriving flows — the online
// generalization the paper's conclusion (§9) names as future work. Time is
// divided into scheduling epochs of one window each; at every epoch
// boundary the controller merges newly arrived flows with the backlog
// carried over from previous epochs (packets continue from their current
// positions in the network) and runs the Octopus scheduler on the combined
// load. Older traffic keeps lower flow IDs, so the paper's
// weight-then-flow-ID priority scheme naturally ages the backlog forward.
//
// Run is the package's one multi-epoch driver. Given a fault trace or
// redundancy groups it also replays failures, repairs broken flows at each
// boundary, audits every plan, and deduplicates delivery per copy group.
// The epoch state machine itself lives in internal/engine; Run is a thin
// batch driver over engine.Pipeline, pinned bit-identical to the
// pre-extraction loops by the golden fingerprints in
// testdata/engine_golden.json. Offline rolling windows (the paper's §4
// carry-over) are Run with every arrival at slot 0.
package online

import (
	"fmt"
	"sort"

	"octopus/internal/core"
	"octopus/internal/engine"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/obs/flight"
	"octopus/internal/traffic"
)

// Arrival is one flow plus the slot at which the controller learns of it.
type Arrival = engine.Arrival

// Batch returns the load's flows as arrivals all due at slot 0, in load
// order.
func Batch(load *traffic.Load) []Arrival {
	arr := make([]Arrival, len(load.Flows))
	for i, f := range load.Flows {
		arr[i] = Arrival{Flow: f}
	}
	return arr
}

// Options configures an online run. Core.Window is the epoch length.
// Core.Obs, when set, additionally receives the online layer's per-epoch
// metrics and "online.epoch" trace events (the per-epoch planner runs
// already inherit it through Core).
//
// A non-nil Trace (even an empty one) or a non-nil Redundancy runs the
// fault loop: at every epoch boundary the controller snapshots the
// surviving fabric, repairs traffic broken by failures — a flow whose
// every route died is rerouted onto a BFS shortest surviving path from its
// current position, or dropped when none exists — plans with the trace's
// delta jitter added to Δ, and audits the plan with verify.Schedule
// against the surviving fabric. Without either, epochs are planned on the
// intact fabric with no repair or audit.
type Options struct {
	Core core.Options
	// MaxEpochs caps the run (0 = run until every admitted flow is
	// delivered, with a safety cap relative to the offered load).
	MaxEpochs int
	// KeepPlans retains each epoch's scheduled load, plan result and
	// fabric on its EpochStat, so callers (and the verification tests) can
	// audit every per-epoch schedule independently. Costs memory
	// proportional to the run; off by default.
	KeepPlans bool
	// Flight receives per-flow lifecycle events keyed by arrival flow IDs
	// (see engine.Config.Flight). nil disables recording; results are
	// bit-identical either way.
	Flight *flight.Recorder

	// Trace degrades and recovers the fabric by a slot-stamped failure
	// script.
	Trace *fault.Trace
	// Redundancy maps redundancy-expanded arrival flow IDs (see
	// traffic.ExpandRedundant) to their copy groups. A copy whose every
	// route died is discarded without repair while a sibling copy keeps a
	// live route (counted as SurvivedRedundant), and UniqueDelivered
	// counts each group once, by its best copy; the raw Delivered and Psi
	// keep the duplicate effort visible as the ψ overhead of proactive
	// protection.
	Redundancy *traffic.Redundancy
	// NoReactive disables the fault loop's BFS repair: a flow whose every
	// route died is dropped outright unless a sibling copy of its group
	// survives. This isolates the proactive arm of the
	// proactive-vs-reactive comparison.
	NoReactive bool
	// SkipReference skips the fault loop's failure-free reference run,
	// leaving Result.Reference nil and every RefDelivered at -1. The
	// reference costs a second full run; skip it when only the degraded
	// numbers matter.
	SkipReference bool
}

// EpochStat summarizes one scheduling epoch.
type EpochStat = engine.EpochStat

// Result reports an online run. Packets are conserved: Total = Delivered +
// Dropped + SurvivedRedundant + whatever is still backlogged when the run
// ends.
type Result struct {
	Epochs    []EpochStat
	Delivered int
	Dropped   int // packets abandoned as unreachable across the whole run
	Total     int
	Psi       int64 // Σ per-epoch plan ψ, duplicates included, in traffic.WeightScale units

	// UniqueDelivered / UniqueTotal are the redundancy-deduplicated run
	// metrics: each copy group counts once (by its best copy) toward
	// UniqueDelivered, and duplicate copies do not add to UniqueTotal.
	// Without redundancy they mirror Delivered / Total.
	UniqueDelivered int
	UniqueTotal     int

	// SurvivedRedundant totals the packets of dead copies discarded because
	// a sibling copy with a live route carried their group through the
	// failure (see EpochStat.SurvivedRedundant).
	SurvivedRedundant int
	// Completion maps each arrival's flow ID to the 1-based epoch in which
	// its last packet was delivered (absent for flows that lost packets to
	// unreachability or never drained).
	Completion map[int]int
	// Reference is the failure-free run of the same arrivals under the
	// same options (nil outside the fault loop or with SkipReference).
	Reference *Result
}

// DeliveredFraction returns Delivered / Total (0 for an empty run).
func (r *Result) DeliveredFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Total)
}

// UniqueDeliveredFraction returns UniqueDelivered / UniqueTotal (0 for an
// empty run).
func (r *Result) UniqueDeliveredFraction() float64 {
	if r.UniqueTotal == 0 {
		return 0
	}
	return float64(r.UniqueDelivered) / float64(r.UniqueTotal)
}

// Degradation returns the shortfall of the degraded run relative to the
// failure-free reference, as a fraction of the reference's delivery: 0 means
// no loss, 1 means nothing was delivered. Returns 0 when there is no
// reference or it delivered nothing.
func (r *Result) Degradation() float64 {
	if r.Reference == nil || r.Reference.Delivered == 0 {
		return 0
	}
	d := float64(r.Reference.Delivered-r.Delivered) / float64(r.Reference.Delivered)
	if d < 0 {
		return 0
	}
	return d
}

// MeanCompletionEpochs returns the average number of epochs between a
// flow's arrival epoch and its completion, over completed flows (0 when
// none completed).
func (r *Result) MeanCompletionEpochs(arrivals []Arrival, window int) float64 {
	if len(r.Completion) == 0 {
		return 0
	}
	total := 0.0
	count := 0
	for _, a := range arrivals {
		done, ok := r.Completion[a.Flow.ID]
		if !ok {
			continue
		}
		arriveEpoch := a.At/window + 1 // admitted at the next boundary
		total += float64(done - arriveEpoch + 1)
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// sortedQueue returns the arrivals stable-sorted by At, the admission
// order the engine expects.
func sortedQueue(arrivals []Arrival) []Arrival {
	queue := append([]Arrival(nil), arrivals...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].At < queue[j].At })
	return queue
}

// epochCap returns the run's epoch budget: the configured cap, or a safety
// cap relative to the offered load (one packet-hop per epoch is a gross
// underestimate of progress, so the load can always drain within it).
func epochCap(maxEpochs int, queue []Arrival) int {
	if maxEpochs != 0 {
		return maxEpochs
	}
	maxEpochs = 16
	for _, a := range queue {
		maxEpochs += a.Flow.Size * traffic.MaxRouteLen
	}
	return maxEpochs
}

// Run schedules the arrivals over successive epochs and reports the run.
// Each epoch is recorded unless it is a drained boundary with nothing to
// show (see engine.Plan.Record). In the fault loop, unless SkipReference
// is set, a failure-free reference run of the same arrivals is computed
// first so every epoch's delivery can be compared against the
// fabric-intact baseline. The run is deterministic given (arrivals,
// options).
func Run(g *graph.Digraph, arrivals []Arrival, opt Options) (*Result, error) {
	faulty := opt.Trace != nil || opt.Redundancy != nil
	queue := sortedQueue(arrivals)
	p, err := engine.New(g, engine.Config{
		Core:      opt.Core,
		KeepPlans: opt.KeepPlans,
		Trace:     opt.Trace,
		Repair:    faulty,
		Reactive:  !opt.NoReactive,
		Red:       opt.Redundancy,
		Audit:     faulty,
		Flight:    opt.Flight,
	})
	if err != nil {
		return nil, err
	}
	if err := p.SubmitAll(queue); err != nil {
		return nil, err
	}

	res := &Result{}
	if faulty && !opt.SkipReference {
		// The reference run is an internal baseline, not part of the
		// observed run: detach the observer and flight recorder so their
		// metrics and journals reflect only the degraded schedule.
		refOpt := Options{Core: opt.Core, MaxEpochs: opt.MaxEpochs, KeepPlans: opt.KeepPlans}
		refOpt.Core.Obs = nil
		if res.Reference, err = Run(g, arrivals, refOpt); err != nil {
			return nil, fmt.Errorf("online: failure-free reference run: %w", err)
		}
	}

	maxEpochs := epochCap(opt.MaxEpochs, queue)
	for epoch := 0; epoch < maxEpochs; epoch++ {
		plan, err := p.PlanNext()
		if err != nil {
			return nil, err
		}
		plan.Stat.RefDelivered = refDelivered(res.Reference, epoch)
		stat, err := p.Commit(plan)
		if err != nil {
			return nil, err
		}
		if plan.Record {
			res.Epochs = append(res.Epochs, *stat)
		}
		if plan.Kind == engine.PlanDrained {
			break
		}
	}
	t := p.Totals()
	res.Delivered, res.Dropped, res.Total, res.Psi = t.Delivered, t.Dropped, t.Submitted, t.Psi
	res.UniqueDelivered, res.UniqueTotal = t.UniqueDelivered, t.UniqueSubmitted
	res.SurvivedRedundant = t.SurvivedRedundant
	res.Completion = p.Completion()
	return res, nil
}

func refDelivered(ref *Result, epoch int) int {
	if ref == nil {
		return -1
	}
	if epoch < len(ref.Epochs) {
		return ref.Epochs[epoch].Delivered
	}
	return 0
}
