package ranapi

import (
	"errors"
	"fmt"
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/traffic"
)

// renameProgram wraps a program with a different name for registry tests.
type renameProgram struct {
	Program
	name string
}

func (r renameProgram) Name() string { return r.name }

// prbCap keeps allocations, in scheduling order, while they fit a
// per-subframe PRB cap, and drops the rest.
type prbCap int

func (c prbCap) Name() string              { return fmt.Sprintf("prb-cap-%d", int(c)) }
func (c prbCap) OnObservation(Observation) {}
func (c prbCap) OnSubframe(w frame.SubframeWork) frame.SubframeWork {
	used, kept := 0, []frame.Allocation(nil)
	for _, a := range w.Allocations {
		if used+a.NumPRB <= int(c) {
			used += a.NumPRB
			kept = append(kept, a)
		}
	}
	w.Allocations = kept
	return w
}

func TestRegistryOrderAndDuplicates(t *testing.T) {
	r := NewRegistry()
	a := NewStatsProgram()
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewStatsProgram()); !errors.Is(err, ErrDuplicateProgram) {
		t.Fatal("duplicate accepted")
	}
	b := renameProgram{NewStatsProgram(), "stats2"}
	if err := r.Register(b); err != nil {
		t.Fatal(err)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "stats" || names[1] != "stats2" {
		t.Fatalf("names %v", names)
	}
	if !r.Unregister("stats") {
		t.Fatal("unregister failed")
	}
	if r.Unregister("stats") {
		t.Fatal("double unregister succeeded")
	}
	if len(r.Names()) != 1 {
		t.Fatal("wrong count after unregister")
	}
}

func TestRegistryApplyChains(t *testing.T) {
	r := NewRegistry()
	_ = r.Register(prbCap(20))
	_ = r.Register(prbCap(10))
	work := frame.SubframeWork{
		Cell: 1, TTI: 5,
		Allocations: []frame.Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 8, MCS: 5},
			{RNTI: 2, FirstPRB: 8, NumPRB: 8, MCS: 5},
			{RNTI: 3, FirstPRB: 16, NumPRB: 8, MCS: 5},
		},
	}
	out := r.Apply(work)
	// The first cap keeps 16 PRB (two allocations); the second keeps 8 (one).
	if len(out.Allocations) != 1 || out.UsedPRB() != 8 {
		t.Fatalf("chained caps left %d allocs, %d PRB", len(out.Allocations), out.UsedPRB())
	}
}

func TestStatsProgram(t *testing.T) {
	s := NewStatsProgram()
	for i := 0; i < 4; i++ {
		s.OnObservation(Observation{Cell: 2, TTI: frame.TTI(i), UsedPRB: 10 + i, NumUEs: 2, DemandCores: 0.5})
	}
	st, ok := s.Stats(2)
	if !ok || st.Subframes != 4 {
		t.Fatalf("stats %+v %v", st, ok)
	}
	if st.MeanPRB != 11.5 || st.MeanUEs != 2 || st.MeanDemand != 0.5 {
		t.Fatalf("means %+v", st)
	}
	if _, ok := s.Stats(9); ok {
		t.Fatal("unknown cell has stats")
	}
	if cells := s.Cells(); len(cells) != 1 || cells[0] != 2 {
		t.Fatalf("cells %v", cells)
	}
	// Pass-through subframe.
	w := frame.SubframeWork{Cell: 1}
	if got := s.OnSubframe(w); got.Cell != 1 {
		t.Fatal("stats program must not modify work")
	}
}

func TestICICMovesEdgeUEsIntoBand(t *testing.T) {
	p, err := NewICICProgram(phy.BW10MHz, 8, map[frame.CellID]int{1: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 50 PRB, group 1 band = [16, 32).
	work := frame.SubframeWork{
		Cell: 1, TTI: 1,
		Allocations: []frame.Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 6, MCS: 3, SNRdB: 2},    // edge
			{RNTI: 2, FirstPRB: 6, NumPRB: 10, MCS: 15, SNRdB: 20}, // centre
			{RNTI: 3, FirstPRB: 16, NumPRB: 4, MCS: 2, SNRdB: 5},   // edge
		},
	}
	out := p.OnSubframe(work)
	if err := out.Validate(phy.BW10MHz); err != nil {
		t.Fatalf("ICIC produced invalid work: %v", err)
	}
	if len(out.Allocations) != 3 {
		t.Fatalf("lost allocations: %d", len(out.Allocations))
	}
	for _, a := range out.Allocations {
		if a.SNRdB < 8 {
			if a.FirstPRB < 16 || a.FirstPRB+a.NumPRB > 32 {
				t.Fatalf("edge UE %d outside protected band: PRBs [%d,%d)", a.RNTI, a.FirstPRB, a.FirstPRB+a.NumPRB)
			}
		}
	}
	if p.Moved() == 0 {
		t.Fatal("no movement recorded")
	}
}

func TestICICShedsWhenBandFull(t *testing.T) {
	p, _ := NewICICProgram(phy.BW10MHz, 10, map[frame.CellID]int{1: 0})
	// Band for group 0 is [0, 16): 20 PRBs of edge traffic cannot fit.
	work := frame.SubframeWork{
		Cell: 1,
		Allocations: []frame.Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 10, MCS: 3, SNRdB: 0},
			{RNTI: 2, FirstPRB: 10, NumPRB: 10, MCS: 3, SNRdB: 0},
		},
	}
	out := p.OnSubframe(work)
	if len(out.Allocations) != 1 {
		t.Fatalf("kept %d allocations, want 1", len(out.Allocations))
	}
	if p.Dropped() != 1 {
		t.Fatalf("dropped %d", p.Dropped())
	}
}

func TestICICUnmanagedCellPassThrough(t *testing.T) {
	p, _ := NewICICProgram(phy.BW10MHz, 10, map[frame.CellID]int{1: 0})
	work := frame.SubframeWork{
		Cell:        7,
		Allocations: []frame.Allocation{{RNTI: 1, FirstPRB: 40, NumPRB: 10, MCS: 3, SNRdB: 0}},
	}
	out := p.OnSubframe(work)
	if out.Allocations[0].FirstPRB != 40 {
		t.Fatal("unmanaged cell was modified")
	}
}

func TestICICValidation(t *testing.T) {
	if _, err := NewICICProgram(phy.Bandwidth(7), 10, nil); err == nil {
		t.Fatal("bad bandwidth accepted")
	}
	if _, err := NewICICProgram(phy.BW10MHz, 10, map[frame.CellID]int{1: 3}); err == nil {
		t.Fatal("group 3 accepted")
	}
}

func TestICICOnGeneratedTraffic(t *testing.T) {
	// Property: over real generated traffic, ICIC output must always be
	// valid and keep every surviving edge UE inside the protected band.
	g, err := traffic.NewGenerator(phy.BW10MHz, []traffic.CellProfile{traffic.DefaultProfile(traffic.Office)}, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewICICProgram(phy.BW10MHz, 9, map[frame.CellID]int{0: 2})
	lo, hi := 32, 50 // group 2 band for 50 PRB
	for tti := frame.TTI(0); tti < 300; tti++ {
		w, err := g.Subframe(0, tti)
		if err != nil {
			t.Fatal(err)
		}
		out := p.OnSubframe(w)
		if err := out.Validate(phy.BW10MHz); err != nil {
			t.Fatalf("tti %d: %v", tti, err)
		}
		for _, a := range out.Allocations {
			if a.SNRdB < 9 && (a.FirstPRB < lo || a.FirstPRB+a.NumPRB > hi) {
				t.Fatalf("tti %d: edge UE outside band", tti)
			}
		}
	}
}
