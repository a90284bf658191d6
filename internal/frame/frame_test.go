package frame

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pran/internal/phy"
)

func TestTTIDerivation(t *testing.T) {
	cases := []struct {
		tti TTI
		sfn uint16
		sf  uint8
	}{
		{0, 0, 0}, {9, 0, 9}, {10, 1, 0}, {10239, 1023, 9}, {10240, 0, 0}, {10245, 0, 5},
	}
	for _, c := range cases {
		if c.tti.SFN() != c.sfn || c.tti.Subframe() != c.sf {
			t.Fatalf("%d: sfn=%d sf=%d, want %d/%d", c.tti, c.tti.SFN(), c.tti.Subframe(), c.sfn, c.sf)
		}
	}
	if TTI(3).String() == "" {
		t.Fatal("empty String")
	}
}

func TestCellConfigValidate(t *testing.T) {
	good := CellConfig{ID: 1, PCI: 100, Bandwidth: phy.BW10MHz, Antennas: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CellConfig{
		{ID: 1, PCI: 504, Bandwidth: phy.BW10MHz, Antennas: 2},
		{ID: 1, PCI: 0, Bandwidth: phy.Bandwidth(7), Antennas: 2},
		{ID: 1, PCI: 0, Bandwidth: phy.BW10MHz, Antennas: 0},
		{ID: 1, PCI: 0, Bandwidth: phy.BW10MHz, Antennas: 9},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestAllocationValidate(t *testing.T) {
	bw := phy.BW10MHz // 50 PRB
	ok := Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 50, MCS: 10}
	if err := ok.Validate(bw); err != nil {
		t.Fatal(err)
	}
	cases := []Allocation{
		{RNTI: 1, FirstPRB: 0, NumPRB: 0, MCS: 10},
		{RNTI: 1, FirstPRB: 45, NumPRB: 6, MCS: 10},
		{RNTI: 1, FirstPRB: -1, NumPRB: 5, MCS: 10},
		{RNTI: 1, FirstPRB: 0, NumPRB: 5, MCS: 30},
		{RNTI: 1, FirstPRB: 0, NumPRB: 5, MCS: 10, HARQProcess: 8},
		{RNTI: 1, FirstPRB: 0, NumPRB: 5, MCS: 10, RV: 4},
	}
	for i, a := range cases {
		if err := a.Validate(bw); err == nil {
			t.Fatalf("bad allocation %d accepted", i)
		}
	}
}

func TestSubframeWorkOverlap(t *testing.T) {
	w := SubframeWork{
		Cell: 1, TTI: 7,
		Allocations: []Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 10, MCS: 5},
			{RNTI: 2, FirstPRB: 10, NumPRB: 10, MCS: 5},
		},
	}
	if err := w.Validate(phy.BW10MHz); err != nil {
		t.Fatal(err)
	}
	if w.UsedPRB() != 20 {
		t.Fatalf("used %d", w.UsedPRB())
	}
	w.Allocations = append(w.Allocations, Allocation{RNTI: 3, FirstPRB: 19, NumPRB: 2, MCS: 5})
	if err := w.Validate(phy.BW10MHz); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlap not detected: %v", err)
	}
}

func TestGridPlaceExtractRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := NewGrid(phy.BW10MHz)
		if err != nil {
			return false
		}
		nprb := 1 + rng.Intn(25)
		first := rng.Intn(50 - nprb + 1)
		a := Allocation{RNTI: 9, FirstPRB: first, NumPRB: nprb, MCS: 10}
		syms := make([]complex128, nprb*phy.DataREsPerPRB)
		for i := range syms {
			syms[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		if err := g.Place(a, syms); err != nil {
			return false
		}
		out := make([]complex128, len(syms))
		if err := g.Extract(out, a); err != nil {
			return false
		}
		for i := range syms {
			if out[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGridNonOverlappingAllocationsIndependent(t *testing.T) {
	g, _ := NewGrid(phy.BW5MHz)
	a := Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 5, MCS: 4}
	b := Allocation{RNTI: 2, FirstPRB: 5, NumPRB: 5, MCS: 4}
	as := make([]complex128, 5*phy.DataREsPerPRB)
	bs := make([]complex128, 5*phy.DataREsPerPRB)
	for i := range as {
		as[i] = 1
		bs[i] = 2
	}
	if err := g.Place(a, as); err != nil {
		t.Fatal(err)
	}
	if err := g.Place(b, bs); err != nil {
		t.Fatal(err)
	}
	outA := make([]complex128, len(as))
	if err := g.Extract(outA, a); err != nil {
		t.Fatal(err)
	}
	for i := range outA {
		if outA[i] != 1 {
			t.Fatalf("allocation A clobbered at %d", i)
		}
	}
}

func TestGridReferenceSymbolsUntouched(t *testing.T) {
	g, _ := NewGrid(phy.BW5MHz)
	a := Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 25, MCS: 4}
	syms := make([]complex128, 25*phy.DataREsPerPRB)
	for i := range syms {
		syms[i] = 1
	}
	if err := g.Place(a, syms); err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{3, 10} {
		row, err := g.Symbol(l)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range row {
			if v != 0 {
				t.Fatalf("reference symbol %d subcarrier %d written: %v", l, i, v)
			}
		}
	}
	if !IsReferenceSymbol(3) || IsReferenceSymbol(0) {
		t.Fatal("IsReferenceSymbol misclassifies")
	}
}

func TestGridErrors(t *testing.T) {
	g, _ := NewGrid(phy.BW5MHz)
	if _, err := g.Symbol(14); err == nil {
		t.Fatal("symbol 14 accepted")
	}
	if _, err := g.Symbol(-1); err == nil {
		t.Fatal("symbol -1 accepted")
	}
	a := Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 2, MCS: 4}
	if err := g.Place(a, make([]complex128, 3)); err == nil {
		t.Fatal("wrong symbol count accepted")
	}
	if err := g.Extract(make([]complex128, 3), a); err == nil {
		t.Fatal("wrong dst size accepted")
	}
	if _, err := NewGrid(phy.Bandwidth(9)); err == nil {
		t.Fatal("bad bandwidth accepted")
	}
	g.Reset()
}

func TestPRBAllocator(t *testing.T) {
	p := NewPRBAllocator(phy.BW5MHz) // 25 PRB
	first, ok := p.Take(10)
	if !ok || first != 0 {
		t.Fatalf("take 10: %d %v", first, ok)
	}
	second, ok := p.Take(15)
	if !ok || second != 10 {
		t.Fatalf("take 15: %d %v", second, ok)
	}
	if _, ok := p.Take(1); ok {
		t.Fatal("overcommit allowed")
	}
	if _, ok := p.Take(0); ok {
		t.Fatal("n=0 accepted")
	}
}

func TestAllocationTBS(t *testing.T) {
	a := Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 10, MCS: 15}
	tbs, err := a.TransportBlockSize()
	if err != nil || tbs <= 0 {
		t.Fatalf("TBS: %d, %v", tbs, err)
	}
	want, _ := phy.MCS(15).TransportBlockSize(10)
	if tbs != want {
		t.Fatalf("TBS %d != phy %d", tbs, want)
	}
}
