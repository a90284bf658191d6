package cluster

import (
	"testing"
	"time"

	"pran/internal/frame"
	"pran/internal/phy"
)

func TestAllocCostWorkersMatchesSerialAtOne(t *testing.T) {
	m := DefaultCostModel()
	a := frame.Allocation{RNTI: 1, NumPRB: 100, MCS: 28, SNRdB: phy.MCS(28).OperatingSNR() + 2}
	if got, want := m.AllocCostWorkers(a, 1), m.AllocCost(a); got != want {
		t.Fatalf("workers=1 cost %v != serial %v", got, want)
	}
}

func TestAllocCostWorkersShrinksServiceTime(t *testing.T) {
	// A high-MCS wide-band TB segments into 13 code blocks, so with
	// per-block claims (width 1) service time must drop substantially up to
	// that parallelism and then flatten.
	m := DefaultCostModel().WithProfile(profScalar)
	a := frame.Allocation{RNTI: 1, NumPRB: 100, MCS: 28, SNRdB: phy.MCS(28).OperatingSNR() + 2}
	serial := m.AllocCost(a)
	prev := serial + time.Hour
	for _, w := range []int{1, 2, 4, 8} {
		c := m.AllocCostWorkers(a, w)
		if c >= prev {
			t.Fatalf("service time not decreasing at %d workers: %v >= %v", w, c, prev)
		}
		prev = c
	}
	if four := m.AllocCostWorkers(a, 4); float64(serial)/float64(four) < 1.5 {
		t.Fatalf("modelled speedup at 4 workers %v → %v is below 1.5×", serial, four)
	}
	// At the default width the same TB is two claims — a full span of 8
	// and a ragged one of 5 — so a second worker helps and a third cannot.
	d := DefaultCostModel()
	one, two, four := d.AllocCostWorkers(a, 1), d.AllocCostWorkers(a, 2), d.AllocCostWorkers(a, 4)
	if two >= one {
		t.Fatalf("default width: 2 workers %v not below 1 worker %v", two, one)
	}
	if four != two {
		t.Fatalf("default width: 4 workers %v differ from 2 workers %v on a two-span TB", four, two)
	}
}

func TestAllocCostWorkersBoundedByBlocks(t *testing.T) {
	// A narrow allocation is a single code block: extra workers must not
	// reduce its cost below serial (they only add dispatch overhead — and
	// the decoder wakes no helpers when C=1, so not even that).
	m := DefaultCostModel()
	a := frame.Allocation{RNTI: 1, NumPRB: 4, MCS: 10, SNRdB: phy.MCS(10).OperatingSNR() + 2}
	serial := m.AllocCost(a)
	if c := m.AllocCostWorkers(a, 8); c < serial {
		t.Fatalf("single-block cost %v dropped below serial %v", c, serial)
	}
}

func TestDispatchPerBlockValidated(t *testing.T) {
	bad := DefaultCostModel()
	bad.DispatchPerBlock = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero DispatchPerBlock accepted")
	}
}
