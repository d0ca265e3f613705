package algo

import (
	"fmt"

	"octopus/internal/graph"
	"octopus/internal/hybrid"
	"octopus/internal/online"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// maxweightAlgo is the closed-loop MaxWeight baseline: all flows arrive at
// slot 0 and the adaptive controller schedules off instantaneous queue
// state over a horizon of Window slots. It produces no schedule; its
// outcome is held to the schedule-free invariants.
type maxweightAlgo struct{}

func (maxweightAlgo) Name() string { return "maxweight" }
func (maxweightAlgo) Describe() string {
	return "MaxWeight adaptive online policy: hold the max-backlog matching (hold=0 → 10·Δ slots), hysteresis hys64/64"
}
func (maxweightAlgo) Kind() Kind { return Online }

func (maxweightAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	res, err := online.MaxWeightAdaptive(g, online.Batch(load), online.AdaptiveOptions{
		Horizon:      p.Window,
		Delta:        p.Delta,
		Hold:         p.Hold,
		Hysteresis64: p.Hysteresis64,
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Algo:      "maxweight",
		Fabric:    g,
		Load:      load,
		Delivered: res.Delivered,
		Total:     res.Total,
		Hops:      res.Hops,
		Reconfigs: res.Reconfigs,
		SlotsUsed: res.SlotsUsed,
	}, nil
}

// hybridAlgo is the §7 hybrid circuit/packet scheme: the packet network
// absorbs small flows first, Octopus schedules the residual. The circuit
// plan's bookkeeping is claimed exactly against the residual load; the
// combined delivery is the outcome metric.
type hybridAlgo struct{}

func (hybridAlgo) Name() string { return "hybrid" }
func (hybridAlgo) Describe() string {
	return "Hybrid circuit/packet scheme (§7): packet network absorbs rate·W per port (rate=0.1), Octopus schedules the rest"
}
func (hybridAlgo) Kind() Kind { return Offline }

func (hybridAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	rate := p.PacketRate
	if rate == 0 {
		rate = 0.1
	}
	res, err := hybrid.Schedule(g, load, baseOptions(p), rate)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Algo:      "hybrid",
		Fabric:    g,
		Load:      load,
		Delivered: res.Delivered(),
		Total:     res.TotalPackets,
		// The packet network is full-bisection: one hop per packet it
		// absorbs; the circuit hops add on top.
		Hops: res.PacketDelivered,
	}
	if res.Circuit != nil {
		c := res.Circuit
		out.Load = res.Residual
		out.Schedule = c.Schedule
		out.Plan = &PlanInfo{
			Iterations: c.Iterations,
			Delivered:  c.Delivered,
			Hops:       c.Hops,
			Psi:        c.Psi,
		}
		out.Hops += c.Hops
		out.Psi = c.Psi
		out.ActiveLinkSlots = c.Schedule.ActiveLinkSlots()
		out.Reconfigs = len(c.Schedule.Configs)
		out.SlotsUsed = c.Schedule.Cost()
		out.VerifyOpt = verify.Options{
			Window:    p.Window,
			Ports:     p.Ports,
			Epsilon64: p.Epsilon64,
			Claim:     &verify.Claim{Delivered: c.Delivered, Hops: c.Hops, Psi: c.Psi},
		}
	}
	out.Extra = func() error {
		if res.PacketDelivered < 0 || res.Delivered() > res.TotalPackets {
			return fmt.Errorf("hybrid delivered %d (packet %d) of %d packets",
				res.Delivered(), res.PacketDelivered, res.TotalPackets)
		}
		return nil
	}
	return out, nil
}
