package traffic

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
)

// mixProfiles builds the standard-mix profile list for n cells.
func mixProfiles(n int) []CellProfile {
	classes := StandardMix(n)
	out := make([]CellProfile, n)
	for i, c := range classes {
		out[i] = DefaultProfile(c)
	}
	return out
}

func TestEnvelopeShape(t *testing.T) {
	cases := []struct {
		t, want float64
	}{
		{-1, 0}, {0, 0}, {5, 0.5}, {10, 1}, {15, 1}, {20, 1}, {25, 0.5}, {30, 0}, {40, 0},
	}
	for _, c := range cases {
		if got := envelope(c.t, 0, 10, 10, 10); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("envelope(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// Zero-length ramp is an instant onset, zero-length decay an instant cut.
	if envelope(0, 0, 0, 5, 0) != 1 || envelope(5.1, 0, 0, 5, 0) != 0 {
		t.Error("degenerate ramp/decay mishandled")
	}
}

func TestFlashCrowdScalesOneCell(t *testing.T) {
	fc := FlashCrowd{Cell: 2, StartSec: 10, RampSec: 5, PlateauSec: 10, DecaySec: 5, Peak: 8}
	u := []float64{0.3, 0.3, 0.3, 0.3}
	fc.Apply(20, u) // mid-plateau
	if math.Abs(u[2]-0.3*8) > 1e-12 {
		t.Fatalf("spiked cell %v, want %v", u[2], 2.4)
	}
	for _, i := range []int{0, 1, 3} {
		if u[i] != 0.3 {
			t.Fatalf("cell %d perturbed: %v", i, u[i])
		}
	}
	if fc.Active(5) || !fc.Active(12) || fc.Active(40) {
		t.Fatal("activity window wrong")
	}
}

func TestRegionalSurgeCorrelated(t *testing.T) {
	rs := RegionalSurge{Cells: []int{0, 3}, StartSec: 0, RampSec: 0, HoldSec: 10, DecaySec: 0, Factor: 3}
	u := []float64{0.2, 0.2, 0.2, 0.2}
	rs.Apply(5, u)
	if math.Abs(u[0]-0.6) > 1e-12 || math.Abs(u[3]-0.6) > 1e-12 {
		t.Fatalf("region not scaled: %v", u)
	}
	if u[1] != 0.2 || u[2] != 0.2 {
		t.Fatalf("cells outside region perturbed: %v", u)
	}
}

// TestMobilityWaveConservesLoad is the acceptance property: the wave
// preserves total offered load within 1% (here: exactly, pre-clamp) at every
// instant, for randomized waves over randomized utilization vectors.
func TestMobilityWaveConservesLoad(t *testing.T) {
	profiles := mixProfiles(12)
	sched, err := RandomSchedule(profiles, 12, 7, 600)
	if err != nil {
		t.Fatal(err)
	}
	// Property over the full random schedule's wave alone...
	var wave MobilityWave
	found := false
	for _, e := range sched.Events() {
		if w, ok := e.(MobilityWave); ok {
			wave, found = w, true
		}
	}
	if !found {
		t.Fatal("random schedule has no mobility wave")
	}
	for step := 0; step <= 600; step++ {
		tSec := float64(step)
		// The deterministic base with every event applied...
		u := make([]float64, len(profiles))
		sched.base(tSec, u)
		sched.Apply(tSec, u)
		// ...and directly: apply only the wave to a fresh base.
		base := make([]float64, len(profiles))
		sched.base(tSec, base)
		before := sum(base)
		wave.Apply(tSec, base)
		after := sum(base)
		if before <= 0 {
			t.Fatalf("t=%v: degenerate base", tSec)
		}
		if rel := math.Abs(after-before) / before; rel > 0.01 {
			t.Fatalf("t=%v: wave moved total load by %.3f%% (before %v after %v)", tSec, rel*100, before, after)
		}
		_ = u
	}
	// Explicit waves across widths and speeds, on uniform vectors where the
	// arithmetic is easy to audit.
	for _, w := range []float64{0.5, 1, 2.5} {
		for _, speed := range []float64{0.5, 2, 10} {
			wave := MobilityWave{Path: []int{0, 1, 2, 3, 4}, StartSec: 0, CellsPerSec: speed, WidthCells: w, Fraction: 0.7}
			for tSec := -2.0; tSec < 12; tSec += 0.25 {
				u := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
				before := sum(u)
				wave.Apply(tSec, u)
				if math.Abs(sum(u)-before) > 1e-9 {
					t.Fatalf("w=%v speed=%v t=%v: sum %v != %v", w, speed, tSec, sum(u), before)
				}
			}
		}
	}
}

func sum(u []float64) float64 {
	s := 0.0
	for _, v := range u {
		s += v
	}
	return s
}

// TestMobilityWaveMovesLoad checks the wave actually concentrates load at
// the front (it is not a no-op that trivially conserves).
func TestMobilityWaveMovesLoad(t *testing.T) {
	wave := MobilityWave{Path: []int{0, 1, 2, 3}, StartSec: 0, CellsPerSec: 1, WidthCells: 0.8, Fraction: 0.8}
	u := []float64{0.25, 0.25, 0.25, 0.25}
	wave.Apply(2, u) // front at cell 2
	if u[2] <= 0.3 {
		t.Fatalf("front cell not amplified: %v", u)
	}
	if u[0] >= 0.25 {
		t.Fatalf("trailing cell not drained: %v", u)
	}
}

// TestNoEventsBitIdentical is the acceptance fidelity contract: with no
// schedule installed (or an event-free schedule outside its windows), the
// per-TTI generator's output is bit-identical to the pre-event generator.
func TestNoEventsBitIdentical(t *testing.T) {
	profiles := mixProfiles(4)
	mk := func() *Generator {
		g, err := NewGenerator(phy.BW5MHz, profiles, 42, 12)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	plain, nilSched, empty := mk(), mk(), mk()
	if err := nilSched.SetSchedule(nil, 0); err != nil {
		t.Fatal(err)
	}
	es, err := NewSchedule(profiles, 12) // no events at all
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.SetSchedule(es, 0); err != nil {
		t.Fatal(err)
	}
	for tti := frame.TTI(0); tti < 3000; tti++ {
		for cell := range profiles {
			a, err1 := plain.Subframe(cell, tti)
			b, err2 := nilSched.Subframe(cell, tti)
			c, err3 := empty.Subframe(cell, tti)
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatal(err1, err2, err3)
			}
			if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
				t.Fatalf("tti %d cell %d: schedules perturb the event-free trace", tti, cell)
			}
		}
	}
}

// TestScheduleSeedReproducibility is the satellite property: identical
// seeds yield bit-identical event schedules and generated load across all classes
// and event types; distinct seeds yield distinct schedules.
func TestScheduleSeedReproducibility(t *testing.T) {
	profiles := mixProfiles(10) // covers all four classes
	const sim = 300.0
	s1, err := RandomSchedule(profiles, 12, 99, sim)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RandomSchedule(profiles, 12, 99, sim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Events(), s2.Events()) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", s1.Events(), s2.Events())
	}
	s3, err := RandomSchedule(profiles, 12, 100, sim)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1.Events(), s3.Events()) {
		t.Fatal("distinct seeds produced identical schedules")
	}
	// All three event types present.
	kinds := map[string]bool{}
	for _, e := range s1.Events() {
		switch e.(type) {
		case FlashCrowd:
			kinds["flash"] = true
		case MobilityWave:
			kinds["wave"] = true
		case RegionalSurge:
			kinds["surge"] = true
		}
	}
	if len(kinds) != 3 {
		t.Fatalf("random schedule missing event types: %v", kinds)
	}

	// Traces under the same schedule + seed are bit-identical...
	mkGen := func(seed int64, s *Schedule) *Generator {
		g, err := NewGenerator(phy.BW5MHz, profiles, seed, 12)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetSchedule(s, 0); err != nil {
			t.Fatal(err)
		}
		return g
	}
	ga, gb, gc := mkGen(7, s1), mkGen(7, s2), mkGen(8, s1)
	identical, distinct := true, false
	for tti := frame.TTI(0); tti < 2000; tti++ {
		for cell := range profiles {
			a, _ := ga.Subframe(cell, tti)
			b, _ := gb.Subframe(cell, tti)
			c, _ := gc.Subframe(cell, tti)
			if !reflect.DeepEqual(a, b) {
				identical = false
			}
			if !reflect.DeepEqual(a, c) {
				distinct = true
			}
		}
	}
	if !identical {
		t.Fatal("same seed + schedule produced different traces")
	}
	if !distinct {
		t.Fatal("distinct generator seeds produced identical traces")
	}

}

// TestEventsReachGeneratedLoad checks the event layer actually moves the
// measured workload: a flash crowd must raise the spiked cell's generated
// PRB usage well above its event-free trace.
func TestEventsReachGeneratedLoad(t *testing.T) {
	profiles := []CellProfile{DefaultProfile(Mixed)}
	// Overnight (03:00) the mixed shape sits near its floor, leaving room
	// for an 8x spike without clamping at the PRB ceiling.
	mk := func() *Generator {
		g, err := NewGenerator(phy.BW10MHz, profiles, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	sched, err := NewSchedule(profiles, 3, FlashCrowd{Cell: 0, StartSec: 0, RampSec: 0, PlateauSec: 60, DecaySec: 0, Peak: 8})
	if err != nil {
		t.Fatal(err)
	}
	spiked, plain := mk(), mk()
	if err := spiked.SetSchedule(sched, 0); err != nil {
		t.Fatal(err)
	}
	prbs := func(g *Generator) int {
		total := 0
		for tti := frame.TTI(0); tti < 2000; tti++ {
			w, err := g.Subframe(0, tti)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range w.Allocations {
				total += a.NumPRB
			}
		}
		return total
	}
	sp, pl := prbs(spiked), prbs(plain)
	if sp < 3*pl {
		t.Fatalf("flash crowd raised PRB usage only %d -> %d (want >= 3x)", pl, sp)
	}
}

func TestScheduleValidation(t *testing.T) {
	profiles := mixProfiles(4)
	if _, err := NewSchedule(nil, 12); err == nil {
		t.Fatal("empty profiles accepted")
	}
	if _, err := NewSchedule(profiles, 24); err == nil {
		t.Fatal("start hour 24 accepted")
	}
	s, err := NewSchedule(profiles, 12)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(phy.BW1_4MHz, profiles[:2], 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetSchedule(s, 3); err == nil {
		t.Fatal("out-of-range firstCell accepted")
	}
	g2, err := NewGenerator(phy.BW1_4MHz, profiles[:2], 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.SetSchedule(s, 0); err == nil {
		t.Fatal("start-hour mismatch accepted")
	}
	// Factor outside any event window is exactly 1 for every cell.
	for cell := 0; cell < 4; cell++ {
		if f := s.Factor(cell, 100); f != 1 {
			t.Fatalf("event-free factor %v != 1", f)
		}
	}
	// Events stringify (report/log surface).
	for _, e := range []Event{
		FlashCrowd{Cell: 1, Peak: 6},
		MobilityWave{Path: []int{0, 1}, CellsPerSec: 1, WidthCells: 1, Fraction: 0.5},
		RegionalSurge{Cells: []int{2}, Factor: 3},
	} {
		if fmt.Sprint(e) == "" {
			t.Fatal("empty event description")
		}
	}
}
