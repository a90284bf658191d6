package cluster

import (
	"testing"

	"pran/internal/frame"
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
		if l.ForcesInt16() && !(l + 1).ForcesInt16() {
			t.Fatalf("int16 forcing regressed at level %d", l+1)
		}
		if l.ShedsHARQ() && !(l + 1).ShedsHARQ() {
			t.Fatalf("HARQ shedding regressed at level %d", l+1)
		}
		if (l + 1).MCSCap() >= l.MCSCap() {
			t.Fatalf("MCS cap not strictly decreasing at level %d", l+1)
		}
	}
	if DegradeNone.IterCap() != 0 || DegradeNone.ForcesInt16() || DegradeNone.ShedsHARQ() || DegradeNone.MCSCap() != phy.MaxMCS {
		t.Fatal("level 0 is not full service")
	}
	if !MaxDegradationLevel.ForcesInt16() || !MaxDegradationLevel.ShedsHARQ() {
		t.Fatal("deepest rung missing knobs")
	}
}

// TestDegradationCostMonotone pins the ladder's pricing contract: raising
// the level never increases the modelled per-TB decode cost, at any MCS/PRB
// corner and at any SNR margin, and the deepest rung is a real cut wherever
// a knob binds: the iteration cap at the cliff edge on every model, the
// kernel swap everywhere on a model that names the float32 kernel (on the
// default model the forced-int16 rung changes nothing by itself).
func TestDegradationCostMonotone(t *testing.T) {
	t.Run("default", func(t *testing.T) { testDegradationCostMonotone(t, DefaultCostModel()) })
	t.Run("float32", func(t *testing.T) {
		testDegradationCostMonotone(t, DefaultCostModel().WithProfile(profFloat32))
	})
}

// testDegradationCostMonotone checks the contract on m. The deepest rung
// must be strictly cheaper wherever one of its knobs binds: everywhere when
// m charges the float32 kernel (the original assertion, at every margin),
// and on any model wherever the block is expected to need more iterations
// than the rung's cap allows.
func testDegradationCostMonotone(t *testing.T, m CostModel) {
	for _, mcs := range []phy.MCS{0, 10, 16, 22, 28} {
		for _, prb := range []int{4, 25, 100} {
			for _, margin := range []float64{-2, 0, 3} {
				w := frame.SubframeWork{
					Cell: 1,
					Allocations: []frame.Allocation{{
						RNTI: 1, NumPRB: prb, MCS: mcs,
						SNRdB: mcs.OperatingSNR() + margin,
					}},
				}
				prev := MaxDegradationLevel.Apply(m).SubframeCost(w, phy.BW20MHz, 1)
				for l := MaxDegradationLevel; l > DegradeNone; l-- {
					c := (l - 1).Apply(m).SubframeCost(w, phy.BW20MHz, 1)
					if c < prev {
						t.Fatalf("mcs %d prb %d margin %+.0f: cost at level %d (%v) below level %d (%v)",
							mcs, prb, margin, l-1, c, l, prev)
					}
					prev = c
				}
				full := DegradeNone.Apply(m).SubframeCost(w, phy.BW20MHz, 1)
				deep := MaxDegradationLevel.Apply(m).SubframeCost(w, phy.BW20MHz, 1)
				binds := m.Profile.Kernel == phy.KernelFloat32 ||
					m.expectedIters(mcs, mcs.OperatingSNR()+margin) > float64(MaxDegradationLevel.IterCap())
				if binds && deep >= full {
					t.Fatalf("mcs %d prb %d margin %+.0f: deepest rung not cheaper (%v vs %v)",
						mcs, prb, margin, deep, full)
				}
			}
		}
	}
}

func TestDegradationApplyMirrorsKnobs(t *testing.T) {
	m := DefaultCostModel()
	for l := DegradeNone; l <= MaxDegradationLevel; l++ {
		got := l.Apply(m)
		if got.IterCap != l.IterCap() {
			t.Fatalf("level %d: model iter cap %d, ladder %d", l, got.IterCap, l.IterCap())
		}
		wantKernel := m.Profile.Kernel
		if l.ForcesInt16() {
			wantKernel = phy.KernelInt16
		}
		if got.Profile.Kernel != wantKernel {
			t.Fatalf("level %d: model kernel %v, want %v", l, got.Profile.Kernel, wantKernel)
		}
	}
}
