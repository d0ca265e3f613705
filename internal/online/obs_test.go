package online

import (
	"bytes"
	"reflect"
	"testing"

	"octopus/internal/core"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/traffic"
)

// TestFaultyObsEquivalence checks the read-only contract through the
// fault-tolerant online pipeline: a fault-trace Run with a live Observer must
// reproduce the uninstrumented run epoch for epoch, including the
// failure-free reference (which deliberately runs with a detached observer
// so its counters do not pollute the degraded run's metrics).
func TestFaultyObsEquivalence(t *testing.T) {
	g := graph.Complete(5)
	arr := []Arrival{
		{Flow: traffic.Flow{ID: 1, Size: 7, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}}, At: 0},
		{Flow: traffic.Flow{ID: 2, Size: 4, Src: 3, Dst: 4, Routes: []traffic.Route{{3, 4}}}, At: 10},
	}
	tr := &fault.Trace{Events: []fault.Event{
		{At: 12, Kind: fault.LinkDown, From: 1, To: 2},
		{At: 40, Kind: fault.LinkUp, From: 1, To: 2},
	}}
	opt := Options{Core: core.Options{Window: 12, Delta: 3}, Trace: tr}
	plain, err := Run(g, arr, opt)
	if err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	reg := obs.NewRegistry()
	opt.Core.Obs = &obs.Observer{Metrics: reg, Trace: obs.NewTracer(&trace)}
	inst, err := Run(g, arr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Core.Obs.Trace.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}

	if inst.Delivered != plain.Delivered || inst.Dropped != plain.Dropped || inst.Total != plain.Total {
		t.Fatalf("totals diverge: %d/%d dropped %d vs %d/%d dropped %d",
			inst.Delivered, inst.Total, inst.Dropped, plain.Delivered, plain.Total, plain.Dropped)
	}
	if !reflect.DeepEqual(inst.Epochs, plain.Epochs) {
		t.Fatalf("epoch stats diverge under instrumentation:\n%+v\n%+v", inst.Epochs, plain.Epochs)
	}
	if !reflect.DeepEqual(inst.Completion, plain.Completion) {
		t.Fatalf("completions diverge: %v vs %v", inst.Completion, plain.Completion)
	}
	if (inst.Reference == nil) != (plain.Reference == nil) {
		t.Fatal("reference presence changed under instrumentation")
	}
	if inst.Reference != nil && inst.Reference.Delivered != plain.Reference.Delivered {
		t.Fatalf("reference diverges: %d vs %d", inst.Reference.Delivered, plain.Reference.Delivered)
	}

	// The online layer's own counters must reflect only the degraded run:
	// epochs equals the degraded epoch count, not double it (the reference
	// run is uninstrumented by construction).
	if got, want := reg.Value("octopus_online_epochs_total"), int64(len(inst.Epochs)); got != want {
		t.Errorf("octopus_online_epochs_total = %d, want %d (reference run must stay uninstrumented)", got, want)
	}
	if got := reg.Value("octopus_online_delivered_total"); got != int64(inst.Delivered) {
		t.Errorf("octopus_online_delivered_total = %d, want %d", got, inst.Delivered)
	}
	if got := reg.Value("octopus_online_rerouted_total"); got <= 0 {
		t.Errorf("octopus_online_rerouted_total = %d, want > 0 (the trace kills flow 1's only route)", got)
	}
}
