package core

import (
	"sort"

	"octopus/internal/traffic"
)

// ResidualLoadMap exports the remaining traffic after the greedy loop has
// finished as a fresh load, plus the provenance of each residual flow: a
// map from new flow ID to the original flow ID it carries packets of.
// Packets stranded at intermediate nodes become flows whose route is the
// untraversed suffix of their original route, and packets still at their
// source keep their original route set. Flow IDs are reassigned densely in
// (original flow, position) order, preserving the original relative
// priority.
//
// This implements the paper's §4 observation that packets undelivered
// within one window "can be considered for continued routing in the next
// time window": the epoch engine schedules a window, carries the residual
// into the next one, and uses the provenance to track per-flow completion
// across epochs.
func (s *Scheduler) ResidualLoadMap() (*traffic.Load, map[int]int) {
	type rem struct {
		key sfKey
		sf  *subflow
	}
	var rems []rem
	for k, sf := range s.tr.byKey {
		if sf.count > 0 {
			rems = append(rems, rem{k, sf})
		}
	}
	sort.Slice(rems, func(i, j int) bool {
		a, b := rems[i].key, rems[j].key
		if a.flowID != b.flowID {
			return a.flowID < b.flowID
		}
		if a.routeID != b.routeID {
			return a.routeID < b.routeID
		}
		return a.pos < b.pos
	})
	out := &traffic.Load{}
	origin := make(map[int]int)
	nextID := 0
	for _, r := range rems {
		sf := r.sf
		var routes []traffic.Route
		if sf.route == nil {
			// Still at the source with the route choice open.
			for _, rt := range sf.flow.Routes {
				routes = append(routes, append(traffic.Route(nil), rt...))
			}
		} else {
			suffix := sf.route[sf.key.pos:]
			routes = []traffic.Route{append(traffic.Route(nil), suffix...)}
		}
		out.Flows = append(out.Flows, traffic.Flow{
			ID:     nextID,
			Size:   sf.count,
			Src:    routes[0].Src(),
			Dst:    sf.flow.Dst,
			Routes: routes,
		})
		origin[nextID] = sf.flow.ID
		nextID++
	}
	return out, origin
}
