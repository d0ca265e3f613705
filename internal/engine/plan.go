package engine

import (
	"errors"
	"fmt"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// EpochStat summarizes one scheduling epoch: its traffic, and — when the
// pipeline runs in repair mode — the boundary's degradation accounting.
type EpochStat struct {
	Epoch     int // 0-based epoch index
	Arrived   int // packets newly admitted at this epoch boundary
	Offered   int // packets scheduled this epoch (arrivals + backlog)
	Delivered int
	Backlog   int // packets carried into the next epoch

	// Plan and Load are the epoch's scheduler result and the exact load it
	// scheduled (nil unless Config.KeepPlans).
	Plan *core.Result
	Load *traffic.Load

	FailedLinks int // links individually down at the boundary snapshot
	FailedNodes int // nodes down at the boundary snapshot

	// Rerouted counts packets whose every route was broken by failures and
	// was repaired onto a shortest surviving path at this boundary.
	Rerouted int
	// Stranded counts the rerouted packets that were requeued from
	// in-flight positions: stuck at an intermediate node whose onward
	// route died.
	Stranded int
	// Dropped counts packets dropped at this boundary because no surviving
	// route to their destination exists (source or destination unreachable
	// on the degraded fabric).
	Dropped int

	// SurvivedRedundant counts packets of copy flows whose every route died
	// at this boundary but whose redundancy group kept another copy with a
	// live route: the dead copy is discarded without reroute or drop — the
	// surviving copy already carries the group's data (always 0 without
	// redundancy).
	SurvivedRedundant int

	// UniqueDelivered is the epoch's redundancy-deduplicated delivery: the
	// increase of the run's unique delivered count (each copy group counts
	// once, by its best copy) during this epoch. Without redundancy it
	// mirrors Delivered.
	UniqueDelivered int

	// RefDelivered is the failure-free reference run's delivery in this
	// epoch (-1 when there is no reference). The engine itself never sets
	// it; a driver that keeps a reference run stamps it between PlanNext
	// and Commit.
	RefDelivered int

	// Fabric is the epoch's surviving-fabric snapshot (nil unless
	// Config.KeepPlans), so each plan can be re-audited independently.
	Fabric *graph.Digraph

	// Psi is the epoch plan's ψ contribution in traffic.WeightScale units
	// (0 for epochs that scheduled nothing).
	Psi int64

	// Cancelled counts packets discarded at this boundary because their
	// arrival was cancelled while queued or in the backlog.
	Cancelled int
}

// PlanKind classifies what a planned epoch will do when committed.
type PlanKind int

const (
	// PlanScheduled carries an Octopus plan for the epoch's merged load.
	PlanScheduled PlanKind = iota
	// PlanIdle schedules nothing but more arrivals are still queued.
	PlanIdle
	// PlanJitterSkipped idles the epoch because the failure trace's delta
	// jitter left no room for even one configuration.
	PlanJitterSkipped
	// PlanDrained means nothing is backlogged or queued: the pipeline has
	// no work now and none pending. Batch drivers stop here; the daemon
	// keeps committing drained epochs while it waits for submissions.
	PlanDrained
)

// Plan is one epoch's computed configuration, produced by PlanNext and
// applied by Commit. Stat carries the epoch's accounting as far as
// planning could fill it; Commit completes the delivery fields.
type Plan struct {
	Epoch int
	Kind  PlanKind
	// Record reports whether a batch driver appends this epoch's stat to
	// its epoch list: scheduled, idle, and jitter-skipped epochs always
	// record; a drained boundary records only when fault repair still did
	// visible work there.
	Record bool
	Stat   EpochStat

	// Planning-side snapshots consumed by Commit.
	nDue         int         // queue entries consumed (admitted or cancelled)
	admitted     []admission // admissions in queue order
	cancelledNow []int       // arrival IDs whose cancellation this plan applies
	work         *traffic.Load
	originView   map[int]int
	nextID       int
	fabric       *graph.Digraph
	sched        *core.Result
	pending      map[int]int
	residual     *traffic.Load
	remap        map[int]int
	committed    bool
}

type admission struct{ id, size, src, dst int }

// Result returns the epoch's scheduler result (nil for unscheduled plan
// kinds). Unlike Stat.Plan it is available without Config.KeepPlans, so a
// long-lived driver can fingerprint or inspect each plan without paying
// for per-epoch load clones.
func (pl *Plan) Result() *core.Result { return pl.sched }

// PlanNext computes the next epoch's configuration without touching the
// committed pipeline state: it snapshots the due arrivals and pending
// cancellations, advances the failure cursor to the boundary, repairs the
// merged load against the surviving fabric (repair mode), and runs the
// Octopus planner on it. The only externally visible effects are the
// observer's repair/planner events; the flow store, epoch counter, and
// provenance maps change only in Commit — so a driver may overlap this
// call with the "execution" of the previously committed epoch.
func (p *Pipeline) PlanNext() (*Plan, error) {
	boundary := p.epoch * p.cfg.Core.Window
	if p.cur != nil {
		p.cur.AdvanceTo(boundary)
	}

	p.mu.Lock()
	i := p.nextArrival
	for i < len(p.queue) && p.queue[i].At <= boundary {
		i++
	}
	// Reading due outside the lock below is safe: Submit only appends past
	// len(queue) and nextArrival only advances in Commit, so these entries
	// are immutable until this plan commits.
	due := p.queue[p.nextArrival:i]
	drained := i == len(p.queue)
	var cancelled map[int]bool
	if len(p.cancelled) > 0 {
		cancelled = make(map[int]bool, len(p.cancelled))
		for id := range p.cancelled {
			cancelled[id] = true
		}
	}
	p.mu.Unlock()

	plan := &Plan{Epoch: p.epoch, nDue: len(due)}
	plan.Stat.Epoch = p.epoch

	// Merged provenance view: the committed map plus this epoch's
	// admissions. Copy-on-write — the committed map is shared untouched
	// when the boundary admits and cancels nothing.
	originView := p.origin
	if len(due) > 0 || cancelled != nil {
		originView = make(map[int]int, len(p.origin)+len(due))
		for k, v := range p.origin {
			originView[k] = v
		}
	}
	work := &traffic.Load{}
	if n := len(p.backlog.Flows) + len(due); n > 0 {
		work.Flows = make([]traffic.Flow, 0, n)
	}
	for _, f := range p.backlog.Flows {
		if cancelled[originView[f.ID]] {
			plan.Stat.Cancelled += f.Size
			plan.cancelledNow = append(plan.cancelledNow, originView[f.ID])
			continue
		}
		work.Flows = append(work.Flows, f)
	}
	nextID := p.nextID
	for _, a := range due {
		f := a.Flow
		if cancelled[f.ID] {
			plan.Stat.Cancelled += f.Size
			plan.cancelledNow = append(plan.cancelledNow, f.ID)
			continue
		}
		originView[nextID] = f.ID
		plan.admitted = append(plan.admitted, admission{id: f.ID, size: f.Size, src: f.Src, dst: f.Dst})
		f.ID = nextID
		nextID++
		work.Flows = append(work.Flows, f)
		plan.Stat.Arrived += f.Size
	}
	plan.work, plan.originView, plan.nextID = work, originView, nextID

	fabric := p.g
	if p.cur != nil {
		fabric = p.cur.SurvivingOf(p.g)
		plan.Stat.FailedLinks = p.cur.FailedLinks()
		plan.Stat.FailedNodes = p.cur.FailedNodes()
	}
	plan.fabric = fabric
	if p.cfg.Repair {
		// Flows admitted at this boundary are still at their source, so
		// the committed source map covers every flow that can be stranded.
		repairBacklog(fabric, work, originView, p.arrivalSrc, &plan.Stat, p.cfg.Red, p.cfg.Reactive, p.cfg.Flight, p.epoch)
		observeRepair(p.cfg.Core.Obs, &plan.Stat)
	}

	if len(work.Flows) == 0 {
		if drained {
			plan.Kind = PlanDrained
			plan.Record = plan.Stat.Dropped > 0 || plan.Stat.SurvivedRedundant > 0 || plan.Stat.Rerouted > 0
		} else {
			plan.Kind = PlanIdle
			plan.Record = true
		}
		return plan, nil
	}

	coreOpt := p.cfg.Core
	if p.cfg.Repair {
		// The trace's jitter stretches this epoch's reconfiguration delay;
		// a jitter so large that no configuration fits idles the epoch.
		coreOpt.Delta = p.cfg.Core.Delta + p.cfg.Trace.Jitter(p.epoch)
		if coreOpt.Delta >= coreOpt.Window {
			plan.Stat.Backlog = work.TotalPackets()
			plan.Kind = PlanJitterSkipped
			plan.Record = true
			return plan, nil
		}
	}

	s, err := core.New(fabric, work, coreOpt)
	if err != nil {
		return nil, err
	}
	sres, err := s.Run()
	if err != nil {
		return nil, err
	}
	if p.cfg.Audit {
		if err := auditEpoch(fabric, work, sres, coreOpt, p.epoch); err != nil {
			return nil, err
		}
	}
	plan.Kind = PlanScheduled
	plan.Record = true
	plan.sched = sres
	plan.pending = s.PendingByFlow()
	plan.residual, plan.remap = s.ResidualLoadMap()
	return plan, nil
}

// Commit applies a plan produced by PlanNext: admissions and cancellations
// become permanent, delivery is accounted against the arrivals, the
// residual load becomes the next backlog, and the epoch counter advances.
// The returned stat is the plan's, with the delivery fields completed.
// Plans must be committed in order; a plan from a stale epoch is rejected.
func (p *Pipeline) Commit(plan *Plan) (*EpochStat, error) {
	if plan == nil {
		return nil, errors.New("engine: Commit of a nil plan")
	}
	if plan.committed {
		return nil, fmt.Errorf("engine: plan for epoch %d already committed", plan.Epoch)
	}
	if plan.Epoch != p.epoch {
		return nil, fmt.Errorf("engine: stale plan for epoch %d (pipeline at epoch %d)", plan.Epoch, p.epoch)
	}
	plan.committed = true

	p.mu.Lock()
	for _, a := range p.queue[p.nextArrival : p.nextArrival+plan.nDue] {
		p.queuedPkts -= a.Flow.Size
	}
	p.nextArrival += plan.nDue
	for _, id := range plan.cancelledNow {
		delete(p.cancelled, id)
	}
	p.compactQueueLocked()
	p.mu.Unlock()

	rec := p.cfg.Flight
	for _, a := range plan.admitted {
		p.outstanding[a.id] = a.size
		rec.Admit(int64(a.id), plan.Epoch, int64(a.size), int64(a.src), int64(a.dst))
	}
	for _, id := range plan.cancelledNow {
		if rec.Tracks(int64(id)) {
			rec.Cancelled(int64(id), plan.Epoch, int64(p.outstanding[id]))
		}
		delete(p.outstanding, id)
	}
	p.cancelledP += plan.Stat.Cancelled
	p.dropped += plan.Stat.Dropped
	p.survived += plan.Stat.SurvivedRedundant

	stat := &plan.Stat
	if plan.Kind != PlanScheduled {
		p.advance(plan, plan.work, plan.originView, plan.nextID)
		return stat, nil
	}

	sres := plan.sched
	// Per-flow delivery accounting against the arrivals. Flight events use
	// arrival IDs throughout; deliveries land at epoch+1, the boundary by
	// which the epoch's transmissions have happened (matching Completion).
	nConfigs := int64(len(sres.Schedule.Configs))
	matcher := int64(p.cfg.Core.Matcher)
	for i := range plan.work.Flows {
		f := &plan.work.Flows[i]
		orig := plan.originView[f.ID]
		if rec.Tracks(int64(orig)) {
			rec.Planned(int64(orig), plan.Epoch, nConfigs, matcher, int64(f.Size))
		}
		delivered := f.Size - plan.pending[f.ID]
		if delivered == 0 {
			continue
		}
		p.outstanding[orig] -= delivered
		if _, grouped := p.cfg.Red.GroupOf(orig); grouped {
			p.deliveredBy[orig] += delivered
		} else {
			p.ungroupedDelivered += delivered
		}
		rec.Delivered(int64(orig), plan.Epoch+1, int64(delivered))
		if p.outstanding[orig] == 0 {
			p.completion[orig] = plan.Epoch + 1
			rec.Completed(int64(orig), plan.Epoch+1)
		}
	}
	newOrigin := make(map[int]int, len(plan.remap))
	maxNew := -1
	for newID, oldID := range plan.remap {
		newOrigin[newID] = plan.originView[oldID]
		if newID > maxNew {
			maxNew = newID
		}
	}
	p.delivered += sres.Delivered
	p.psi += sres.Psi
	stat.Psi = sres.Psi
	uniqueNow := p.ungroupedDelivered + bestCopyDelivered(p.deliveredBy, p.members)
	stat.UniqueDelivered = uniqueNow - p.uniquePrev
	p.uniquePrev = uniqueNow
	stat.Offered = sres.TotalPackets
	stat.Delivered = sres.Delivered
	stat.Backlog = sres.Pending
	observeEpoch(p.cfg.Core.Obs, stat, len(sres.Schedule.Configs))
	if p.cfg.KeepPlans {
		stat.Plan = sres
		stat.Load = plan.work.Clone()
		stat.Fabric = plan.fabric
	}
	p.advance(plan, plan.residual, newOrigin, maxNew+1)
	return stat, nil
}

// advance installs the committed backlog and its provenance and moves to
// the next epoch. In repair mode the arrival-source map is rebuilt over the
// arrivals the new backlog still references, so it stays bounded by the
// live backlog rather than growing with every arrival ever admitted.
func (p *Pipeline) advance(plan *Plan, backlog *traffic.Load, origin map[int]int, nextID int) {
	if p.cfg.Repair {
		var fresh map[int]int
		if len(plan.admitted) > 0 {
			fresh = make(map[int]int, len(plan.admitted))
			for _, a := range plan.admitted {
				fresh[a.id] = a.src
			}
		}
		src := make(map[int]int, len(backlog.Flows))
		for _, f := range backlog.Flows {
			orig := origin[f.ID]
			s, ok := p.arrivalSrc[orig]
			if !ok {
				s = fresh[orig]
			}
			src[orig] = s
		}
		p.arrivalSrc = src
	}
	p.backlog = backlog
	p.origin = origin
	p.nextID = nextID
	p.epoch++
}

// compactQueueLocked drops the consumed head of the arrival queue once it
// dominates the slice, so a long-lived daemon does not retain every
// arrival ever submitted. Callers hold p.mu.
func (p *Pipeline) compactQueueLocked() {
	if p.nextArrival < 1024 || p.nextArrival <= len(p.queue)/2 {
		return
	}
	p.queue = append([]Arrival(nil), p.queue[p.nextArrival:]...)
	p.nextArrival = 0
}
