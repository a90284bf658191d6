package ranapi

import (
	"math"
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
)

// contention builds a subframe where three UEs want more PRBs than the cap:
// a strong UE with a big high-MCS grant and two weak UEs with small grants.
func contention(tti frame.TTI) frame.SubframeWork {
	return frame.SubframeWork{
		Cell: 1, TTI: tti,
		Allocations: []frame.Allocation{
			{RNTI: 10, FirstPRB: 0, NumPRB: 4, MCS: 20, SNRdB: 22}, // strong
			{RNTI: 11, FirstPRB: 4, NumPRB: 1, MCS: 4, SNRdB: 5},   // weak
			{RNTI: 12, FirstPRB: 5, NumPRB: 1, MCS: 4, SNRdB: 5},   // weak
		},
	}
}

func TestPFSchedulerServesEveryoneEventually(t *testing.T) {
	// Cap 4 PRB: the strong UE alone fills the budget; PF must rotate the
	// weak UEs in rather than starving them forever.
	pf := NewPFSchedulerProgram(4)
	servedTTIs := map[frame.RNTI]int{}
	for tti := frame.TTI(0); tti < 400; tti++ {
		out := pf.OnSubframe(contention(tti))
		if err := out.Validate(phy.BW1_4MHz); err != nil {
			t.Fatalf("tti %d: %v", tti, err)
		}
		if out.UsedPRB() > 4 {
			t.Fatalf("tti %d: cap exceeded (%d PRB)", tti, out.UsedPRB())
		}
		for _, a := range out.Allocations {
			servedTTIs[a.RNTI]++
		}
	}
	for _, rnti := range []frame.RNTI{10, 11, 12} {
		if servedTTIs[rnti] == 0 {
			t.Fatalf("UE %d starved by PF scheduler (served %v)", rnti, servedTTIs)
		}
	}
	if pf.Shed() == 0 {
		t.Fatal("no shedding under contention?")
	}
	if pf.ServedThroughput(10) <= pf.ServedThroughput(11) {
		t.Fatal("strong UE should still average more served bits")
	}
}

func TestPFFairerThanGreedy(t *testing.T) {
	// Jain index over time-served must be visibly better under PF than
	// under throughput-greedy selection for the same workload.
	pf := NewPFSchedulerProgram(4)
	greedy := NewGreedyThroughputProgram(4)
	pfServed := map[frame.RNTI]float64{}
	grServed := map[frame.RNTI]float64{}
	for tti := frame.TTI(0); tti < 400; tti++ {
		w := contention(tti)
		for _, a := range pf.OnSubframe(w).Allocations {
			tbs, _ := a.TransportBlockSize()
			pfServed[a.RNTI] += float64(tbs)
		}
		w2 := contention(tti)
		for _, a := range greedy.OnSubframe(w2).Allocations {
			tbs, _ := a.TransportBlockSize()
			grServed[a.RNTI] += float64(tbs)
		}
	}
	// Include never-served UEs as zeros.
	for _, r := range []frame.RNTI{10, 11, 12} {
		pfServed[r] += 0
		grServed[r] += 0
	}
	pfJain := jainIndex(ThroughputShare(pfServed))
	grJain := jainIndex(ThroughputShare(grServed))
	if pfJain <= grJain {
		t.Fatalf("PF Jain %.3f not above greedy %.3f", pfJain, grJain)
	}
	if greedy.Shed() == 0 {
		t.Fatal("greedy never shed")
	}
	if greedy.Name() != "greedy-throughput" || pf.Name() != "pf-scheduler" {
		t.Fatal("names")
	}
}

func TestPFNoContentionPassThrough(t *testing.T) {
	pf := NewPFSchedulerProgram(100)
	w := contention(0)
	out := pf.OnSubframe(w)
	if len(out.Allocations) != len(w.Allocations) {
		t.Fatal("PF dropped allocations despite ample capacity")
	}
	pf.OnObservation(Observation{})
	g := NewGreedyThroughputProgram(100)
	if got := g.OnSubframe(w); len(got.Allocations) != len(w.Allocations) {
		t.Fatal("greedy dropped without contention")
	}
	g.OnObservation(Observation{})
}

func TestPFInRegistryChain(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(NewPFSchedulerProgram(4)); err != nil {
		t.Fatal(err)
	}
	out := r.Apply(contention(0))
	if out.UsedPRB() > 4 {
		t.Fatal("chained PF did not enforce the cap")
	}
}

// jainIndex computes Jain's fairness index over per-entity allocations:
// (Σx)² / (n·Σx²). It returns 1 for an empty or all-zero input by
// convention (nothing is unfairly shared).
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

func TestJainIndex(t *testing.T) {
	if jainIndex(nil) != 1 {
		t.Fatal("empty should be 1")
	}
	if jainIndex([]float64{0, 0}) != 1 {
		t.Fatal("all-zero should be 1")
	}
	if v := jainIndex([]float64{1, 1, 1, 1}); math.Abs(v-1) > 1e-12 {
		t.Fatalf("equal allocation: %v", v)
	}
	// One user hogging everything among n: index = 1/n.
	if v := jainIndex([]float64{1, 0, 0, 0}); math.Abs(v-0.25) > 1e-12 {
		t.Fatalf("max unfairness: %v", v)
	}
	mid := jainIndex([]float64{1, 2, 3})
	if mid <= 0.25 || mid >= 1 {
		t.Fatalf("intermediate fairness %v out of range", mid)
	}
}
