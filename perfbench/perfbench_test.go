package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// ungated workloads run on request but are left out of BENCHMARK.json:
// their figures did not hold within its bounds on a shared host
// (README.md).
var ungated = map[string]bool{"paper-n100": true}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric and
// workload tables the binary prints from in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	var gated []workload
	for _, w := range workloads {
		if !ungated[w.name] {
			gated = append(gated, w)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(bf.Workloads), len(gated))
	}
	for i, w := range bf.Workloads {
		if w.Name != gated[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, gated[i].name)
		}
	}
	check := func(kind string, got []metricDef, name func(i int) (string, string, string), n int) {
		if n != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the binary %d", kind, n, len(got))
		}
		for i, m := range got {
			if bn, bu, bb := name(i); bn != m.name || bu != m.unit || bb != m.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, binary %s/%s/%s", kind, i, bn, bu, bb, m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", endToEnd, func(i int) (string, string, string) {
		return bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit, bf.EndToEnd[i].Better
	}, len(bf.EndToEnd))
	check("per_layer", perLayer, func(i int) (string, string, string) {
		return bf.PerLayer[i].Name, bf.PerLayer[i].Unit, bf.PerLayer[i].Better
	}, len(bf.PerLayer))
}

// buildBinaries builds perfbench and mhsd into a temporary directory.
func buildBinaries(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	pb, mhsd := filepath.Join(dir, "perfbench"), filepath.Join(dir, "mhsd")
	for _, args := range [][]string{{"build", "-o", pb, "."}, {"build", "-o", mhsd, "octopus/cmd/mhsd"}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	return pb, mhsd
}

// smoke runs one workload at reduced size and decodes its result line.
func smoke(t *testing.T, pb, mhsd, workload string, trace bool, extra ...string) result {
	t.Helper()
	tr := "0"
	if trace {
		tr = "1"
	}
	args := append([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", tr,
		"--smoke", "--mhsd", mhsd, "--out", t.TempDir()}, extra...)
	cmd := exec.Command(pb, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	return res
}

// TestSmokeWorkloads runs every workload, ungated ones included, untraced
// and traced, at reduced size: all checks pass, and the printed metrics
// are exactly the ones BENCHMARK.json declares for that mode.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	bf := readBenchmarkFile(t)
	pb, mhsd := buildBinaries(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smoke(t, pb, mhsd, w.name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if want[name] != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w.name, trace, name, m.Unit, want[name])
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestCorruptPinFails proves the offline output checks run: a ψ pin off
// by one fails every op.
func TestCorruptPinFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	pb, mhsd := buildBinaries(t)
	for _, w := range []string{"paper-n100", "pods-1m"} {
		res := smoke(t, pb, mhsd, w, false, "--corrupt-pin", "1")
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s with a corrupted pin: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestGroupedQuantile pins the grouped reading of whole-number samples:
// it moves with the share at each value where the nearest rank jumps.
func TestGroupedQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{1, 1, 1, 1}, 0.5, 1},
		{[]float64{1, 1, 2, 2}, 0.5, 1.5},
		{[]float64{1, 1, 1, 2}, 0.5, 1 - 0.5 + 2.0/3},
		{[]float64{1, 2, 2, 2}, 0.5, 2 - 0.5 + 1.0/3},
		{[]float64{3, 1, 2, 2, 2}, 0.8, 2 - 0.5 + 3.0/3},
	} {
		if got := groupedQuantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("groupedQuantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}
