package ranapi

import (
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
)

func TestMCSCapProgramClamps(t *testing.T) {
	m := NewMCSCapProgram()
	if m.Name() != "mcs-cap" {
		t.Fatal("name")
	}
	work := frame.SubframeWork{
		Cell: 1, TTI: 3,
		Allocations: []frame.Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 4, MCS: 27},
			{RNTI: 2, FirstPRB: 4, NumPRB: 4, MCS: 10},
		},
	}
	// Uncapped: untouched.
	out := m.OnSubframe(work)
	if out.Allocations[0].MCS != 27 || out.Allocations[1].MCS != 10 {
		t.Fatalf("uncapped program rewrote MCS: %+v", out.Allocations)
	}
	// Capped: only allocations above the cap clamp; PRB layout untouched.
	m.SetCap(1, 14)
	out = m.OnSubframe(work)
	if out.Allocations[0].MCS != 14 || out.Allocations[1].MCS != 10 {
		t.Fatalf("clamp wrong: %+v", out.Allocations)
	}
	if out.Allocations[0].FirstPRB != 0 || out.Allocations[0].NumPRB != 4 {
		t.Fatal("PRB layout disturbed")
	}
	if err := out.Validate(phy.BW5MHz); err != nil {
		t.Fatalf("clamped work invalid: %v", err)
	}
	// Caps are per-cell.
	other := work
	other.Cell = 2
	if got := m.OnSubframe(other); got.Allocations[0].MCS != 27 {
		t.Fatal("cap leaked to another cell")
	}
	// MaxMCS clears the cap.
	m.SetCap(1, phy.MaxMCS)
	out = m.OnSubframe(work)
	if out.Allocations[0].MCS != 27 {
		t.Fatal("cleared cap still clamping")
	}
}

func TestMCSCapProgramInRegistry(t *testing.T) {
	r := NewRegistry()
	m := NewMCSCapProgram()
	if err := r.Register(m); err != nil {
		t.Fatal(err)
	}
	m.SetCap(7, 8)
	work := frame.SubframeWork{
		Cell: 7, TTI: 1,
		Allocations: []frame.Allocation{{RNTI: 1, FirstPRB: 0, NumPRB: 2, MCS: 20}},
	}
	if out := r.Apply(work); out.Allocations[0].MCS != 8 {
		t.Fatalf("registry chain did not clamp: %+v", out.Allocations)
	}
	m.OnObservation(Observation{Cell: 7}) // no-op, must not panic
}
