package engine

import (
	"testing"

	"octopus/internal/core"
)

// TestFlightMatcherCodesMirrorCore pins the core.Matcher values. Commit
// writes int64(core.Matcher) into the flight planned event, so these values
// are the matcher codes of flight log version 1: renumbering the enum would
// change what existing logs mean.
func TestFlightMatcherCodesMirrorCore(t *testing.T) {
	pairs := []struct {
		name string
		m    core.Matcher
		code int64
	}{
		{"exact", core.MatcherExact, 0},
		{"greedy", core.MatcherGreedy, 1},
		{"warm", core.MatcherWarm, 4},
	}
	for _, p := range pairs {
		if int64(p.m) != p.code {
			t.Errorf("matcher %s: code %d, want %d", p.name, int64(p.m), p.code)
		}
	}
}
