package octopus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// updateRollingGolden regenerates testdata/rolling_golden.json. The file
// was captured from the standalone rolling-window loop that RunWindows
// used to be; regenerating it is only legitimate for an intended behavior
// change of rolling scheduling.
var updateRollingGolden = flag.Bool("update-rolling-golden", false, "rewrite the rolling-window golden file")

// rollingWindow is one window's fingerprint: a hash of the planned
// schedule's JSON bytes plus the window's accounting.
type rollingWindow struct {
	SchedFP   string `json:"sched_fp"`
	Psi       int64  `json:"psi"`
	Offered   int    `json:"offered"`
	Delivered int    `json:"delivered"`
	Residual  int    `json:"residual"`
}

// rollingCase builds one seeded rolling instance. Odd seeds renumber the
// flows with shuffled, non-dense IDs and shuffle their order, so the pin
// also covers loads whose slice order and ID order disagree.
func rollingCase(t *testing.T, seed int64) (*Network, *Load, Options, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(7)
	var g *Network
	if seed%3 == 0 {
		g = RandomPartial(n, 3, rng)
	} else {
		g = Complete(n)
	}
	window := 60 + 20*rng.Intn(5)
	p := DefaultSyntheticParams(n, window*(3+rng.Intn(4)))
	if seed%4 == 1 {
		p.RouteChoices = 3
	}
	load, err := Synthetic(g, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if seed%2 == 1 {
		ids := rng.Perm(4 * len(load.Flows))
		for i := range load.Flows {
			load.Flows[i].ID = 7 + ids[i]
		}
		rng.Shuffle(len(load.Flows), func(i, j int) {
			load.Flows[i], load.Flows[j] = load.Flows[j], load.Flows[i]
		})
	}
	opt := Options{Window: window, Delta: 2 + rng.Intn(9)}
	switch seed % 6 {
	case 1:
		opt.MultiRoute = true
	case 2:
		opt.Matcher = MatcherGreedy
	case 3:
		opt.AlphaSearch = AlphaBinary
	case 4:
		opt.Epsilon64 = 4
	}
	return g, load, opt, 10 + rng.Intn(7)
}

// TestRollingWindowsGolden pins RunWindows window by window — schedule
// bytes, ψ, offered, delivered and residual — over 24 seeded loads.
func TestRollingWindowsGolden(t *testing.T) {
	runs := map[string][]rollingWindow{}
	for seed := int64(1); seed <= 24; seed++ {
		g, load, opt, windows := rollingCase(t, seed)
		ws, err := RunWindows(g, load, opt, windows)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var fps []rollingWindow
		for _, w := range ws {
			var buf bytes.Buffer
			if err := w.Result.Schedule.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			fps = append(fps, rollingWindow{
				SchedFP:   hex.EncodeToString(sum[:8]),
				Psi:       w.Result.Psi,
				Offered:   w.Offered,
				Delivered: w.Result.Delivered,
				Residual:  w.Residual,
			})
		}
		runs[fmt.Sprintf("seed%02d", seed)] = fps
	}

	got, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "rolling_golden.json")
	if *updateRollingGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rolling windows drifted from the golden fingerprints (-update-rolling-golden only on an intended change)")
	}
}
