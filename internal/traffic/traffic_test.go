package traffic

import (
	"math"
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
)

func TestShapeBounds(t *testing.T) {
	for c := Class(0); c < numClasses; c++ {
		for m := 0; m < 24*60; m++ {
			tod := float64(m) / 60
			v := c.Shape(tod)
			if v <= 0 || v > 1 {
				t.Fatalf("%v shape(%v) = %v out of (0,1]", c, tod, v)
			}
		}
	}
}

func TestShapePeakHours(t *testing.T) {
	// Office peaks in working hours; residential in the evening; transport
	// at a rush hour.
	office := Office.PeakHour()
	if office < 9 || office > 17 {
		t.Fatalf("office peak at %v", office)
	}
	res := Residential.PeakHour()
	if res < 18 || res > 23 {
		t.Fatalf("residential peak at %v", res)
	}
	tr := Transport.PeakHour()
	if !((tr > 7 && tr < 10) || (tr > 16 && tr < 19)) {
		t.Fatalf("transport peak at %v", tr)
	}
}

func TestShapeNightFloor(t *testing.T) {
	// 4 AM load must be well below peak for every class (diurnal swing).
	for c := Class(0); c < numClasses; c++ {
		night := c.Shape(4)
		if night > 0.4 {
			t.Fatalf("%v at 4am = %v, too high", c, night)
		}
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{Office: "office", Residential: "residential", Mixed: "mixed", Transport: "transport"}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("%d → %q", c, c.String())
		}
	}
	if Class(99).String() == "" {
		t.Fatal("unknown class must still print")
	}
}

func TestDayTraceDeterminism(t *testing.T) {
	p := DefaultProfile(Office)
	a, err := DayTrace(p, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := DayTrace(p, 42, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c, _ := DayTrace(p, 43, 1)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestDayTraceLengthAndBounds(t *testing.T) {
	p := DefaultProfile(Mixed)
	tr, err := DayTrace(p, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 8640 {
		t.Fatalf("length %d, want 8640", len(tr))
	}
	for i, v := range tr {
		if v < 0 || v > 1 {
			t.Fatalf("utilization %v at %d out of [0,1]", v, i)
		}
	}
}

func TestDayTracePeakToMean(t *testing.T) {
	// Diurnal cells must show a substantial peak-to-mean ratio — the raw
	// material of PRAN's pooling gain.
	for _, c := range []Class{Office, Residential, Transport} {
		tr, err := DayTrace(DefaultProfile(c), 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		ptm := PeakToMean(tr)
		if ptm < 1.8 || ptm > 8 {
			t.Fatalf("%v peak-to-mean %v outside [1.8, 8]", c, ptm)
		}
	}
}

func TestPeakToMeanEdgeCases(t *testing.T) {
	if PeakToMean(nil) != 0 {
		t.Fatal("empty trace")
	}
	if PeakToMean([]float64{0, 0}) != 0 {
		t.Fatal("zero trace")
	}
	if v := PeakToMean([]float64{1, 1, 1}); math.Abs(v-1) > 1e-12 {
		t.Fatalf("flat trace: %v", v)
	}
}

func TestDayTraceValidation(t *testing.T) {
	if _, err := DayTrace(CellProfile{PeakUtilization: 0}, 1, 1); err == nil {
		t.Fatal("invalid profile accepted")
	}
	if _, err := DayTrace(DefaultProfile(Office), 1, 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestStandardMix(t *testing.T) {
	mix := StandardMix(100)
	counts := map[Class]int{}
	for _, c := range mix {
		counts[c]++
	}
	if counts[Office] != 30 || counts[Residential] != 40 || counts[Mixed] != 20 || counts[Transport] != 10 {
		t.Fatalf("mix %v", counts)
	}
	// Small prefixes stay mixed.
	small := StandardMix(10)
	seen := map[Class]bool{}
	for _, c := range small {
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Fatalf("prefix of 10 covers %d classes", len(seen))
	}
}

func TestGeneratorSubframeValid(t *testing.T) {
	profiles := []CellProfile{DefaultProfile(Office), DefaultProfile(Residential)}
	g, err := NewGenerator(phy.BW10MHz, profiles, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	for tti := frame.TTI(0); tti < 500; tti++ {
		for cell := 0; cell < 2; cell++ {
			w, err := g.Subframe(cell, tti)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Validate(phy.BW10MHz); err != nil {
				t.Fatalf("cell %d %v: %v", cell, tti, err)
			}
			if w.Cell != frame.CellID(cell) || w.TTI != tti {
				t.Fatal("work identity wrong")
			}
		}
	}
}

func TestGeneratorTracksDiurnalLoad(t *testing.T) {
	// Mean generated utilization at peak hour must exceed the night one by
	// a large factor, matching the profile's shape.
	prof := DefaultProfile(Office)
	meanUtil := func(startHour float64, seed int64) float64 {
		g, err := NewGenerator(phy.BW10MHz, []CellProfile{prof}, seed, startHour)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		const n = 2000
		for tti := frame.TTI(0); tti < n; tti++ {
			w, err := g.Subframe(0, tti)
			if err != nil {
				t.Fatal(err)
			}
			total += w.UsedPRB()
		}
		return float64(total) / float64(n*phy.BW10MHz.PRB())
	}
	peak := meanUtil(prof.Class.PeakHour(), 3)
	night := meanUtil(4, 3)
	if peak < 2*night {
		t.Fatalf("peak %v not well above night %v", peak, night)
	}
	if peak < 0.5 {
		t.Fatalf("peak-hour utilization %v too low for PeakUtilization=%v", peak, prof.PeakUtilization)
	}
}

func TestGeneratorMCSRespondsToSNR(t *testing.T) {
	// A high-SNR cell must generate a higher average MCS than a low-SNR one.
	high := CellProfile{Class: Mixed, PeakUtilization: 0.9, SNRMeanDB: 22, SNRStdDB: 1, MeanUEsAtPeak: 6}
	low := CellProfile{Class: Mixed, PeakUtilization: 0.9, SNRMeanDB: 2, SNRStdDB: 1, MeanUEsAtPeak: 6}
	g, err := NewGenerator(phy.BW10MHz, []CellProfile{high, low}, 9, 12)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(cell int) float64 {
		var sum, n float64
		for tti := frame.TTI(0); tti < 1000; tti++ {
			w, _ := g.Subframe(cell, tti)
			for _, a := range w.Allocations {
				sum += float64(a.MCS)
				n++
			}
		}
		if n == 0 {
			t.Fatal("no allocations generated")
		}
		return sum / n
	}
	if hi, lo := avg(0), avg(1); hi <= lo+5 {
		t.Fatalf("high-SNR cell MCS %v not well above low-SNR %v", hi, lo)
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := NewGenerator(phy.Bandwidth(7), []CellProfile{DefaultProfile(Office)}, 1, 0); err == nil {
		t.Fatal("bad bandwidth accepted")
	}
	if _, err := NewGenerator(phy.BW10MHz, nil, 1, 0); err == nil {
		t.Fatal("no profiles accepted")
	}
	if _, err := NewGenerator(phy.BW10MHz, []CellProfile{{}}, 1, 0); err == nil {
		t.Fatal("invalid profile accepted")
	}
	if _, err := NewGenerator(phy.BW10MHz, []CellProfile{DefaultProfile(Office)}, 1, 25); err == nil {
		t.Fatal("bad start hour accepted")
	}
	g, _ := NewGenerator(phy.BW10MHz, []CellProfile{DefaultProfile(Office)}, 1, 0)
	if _, err := g.Subframe(2, 0); err == nil {
		t.Fatal("bad cell index accepted")
	}
}

func TestDefaultProfilesValid(t *testing.T) {
	for c := Class(0); c < numClasses; c++ {
		if err := DefaultProfile(c).Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
}
