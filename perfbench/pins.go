package main

// pin is the pinned outcome of one offline instance: ψ (in
// traffic.WeightScale units) and delivered packets of octopus on it.
type pin struct {
	psi       int64
	delivered int
}

// pins holds every pooled instance's outcome, keyed by workload (with a
// "/smoke" suffix for the reduced sizes) and instance seed. Regenerate
// with `perfbench --print-pins --workload <name> [--smoke]` only when a
// change alters schedules on purpose. pods-1m instance 1 is the
// BENCH_pr10.json reference point.
var pins = map[string]map[int64]pin{
	"paper-n100": {
		1:  {1072437273600, 547420},
		2:  {1075601049600, 546200},
		3:  {1069388812800, 538130},
		4:  {1068963033600, 536480},
		5:  {1077206592000, 537450},
		6:  {1066721779200, 538880},
		7:  {1074001420800, 546510},
		8:  {1074205440000, 550100},
		9:  {1073306572800, 545390},
		10: {1066059456000, 542360},
		11: {1074353280000, 535500},
		12: {1072292390400, 539640},
		13: {1076955264000, 546500},
		14: {1071621196800, 543190},
		15: {1073850624000, 541250},
		16: {1070834688000, 544070},
	},
	"paper-n100/smoke": {
		1: {6014131200, 2780},
		2: {6640972800, 2640},
		3: {6605491200, 3340},
		4: {5366592000, 2460},
	},
	"pods-1m": {
		1: {780897089280, 435657},
		2: {781043155200, 435622},
		3: {780921926400, 435722},
		4: {781896487680, 435999},
	},
	"pods-1m/smoke": {
		1: {4718461440, 2592},
		2: {4703973120, 2548},
		3: {4671744000, 2556},
		4: {4551402240, 2501},
	},
}

func lookupPin(workload string, smoke bool, seed int64) (pin, bool) {
	if smoke {
		workload += "/smoke"
	}
	p, ok := pins[workload][seed]
	return p, ok
}
