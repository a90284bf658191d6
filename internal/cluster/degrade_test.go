package cluster

import (
	"testing"

	"pran/internal/phy"
)

// effectiveIterCap is the iteration budget a level actually imposes (cap 0 =
// the decoder's default).
func effectiveIterCap(l DegradationLevel) int {
	if c := l.IterCap(); c > 0 {
		return c
	}
	return phy.DefaultTurboIterations
}

func TestDegradationLadderStructure(t *testing.T) {
	if DegradeNone != 0 {
		t.Fatal("zero value is not full service")
	}
	for l := DegradeNone; l <= MaxDegradationLevel; l++ {
		if err := l.Validate(); err != nil {
			t.Fatalf("level %d invalid: %v", l, err)
		}
		if l.String() == "" {
			t.Fatalf("level %d unnamed", l)
		}
	}
	if err := (MaxDegradationLevel + 1).Validate(); err == nil {
		t.Fatal("out-of-range level validated")
	}
	if (MaxDegradationLevel + 5).Clamp() != MaxDegradationLevel {
		t.Fatal("clamp broken")
	}
	// Monotone knobs: every rung is at least as aggressive as the last.
	for l := DegradeNone; l < MaxDegradationLevel; l++ {
		if effectiveIterCap(l+1) >= effectiveIterCap(l) {
			t.Fatalf("iter cap not strictly decreasing at level %d", l+1)
		}
		if l.ShedsHARQ() && !(l + 1).ShedsHARQ() {
			t.Fatalf("HARQ shedding regressed at level %d", l+1)
		}
		if (l + 1).MCSCap() >= l.MCSCap() {
			t.Fatalf("MCS cap not strictly decreasing at level %d", l+1)
		}
	}
	if DegradeNone.IterCap() != 0 || DegradeNone.ShedsHARQ() || DegradeNone.MCSCap() != phy.MaxMCS {
		t.Fatal("level 0 is not full service")
	}
	if !MaxDegradationLevel.ShedsHARQ() {
		t.Fatal("deepest rung missing knobs")
	}
}
