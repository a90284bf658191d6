package telemetry

import (
	"math"
	"testing"
)

// specState records vals into a one-shard histogram of the given spec and
// returns its state.
func specState(min, max float64, n int, vals ...float64) HistogramState {
	h := New(1).Histogram("h", min, max, n)
	for _, v := range vals {
		h.Observe(0, v)
	}
	return h.state()
}

func histState(vals ...float64) HistogramState { return specState(1e-6, 16, 64, vals...) }

func TestDeltaCounters(t *testing.T) {
	prev := Snapshot{Counters: []CounterSnap{
		{Name: "a", Value: 10},
		{Name: "gone", Value: 5},
	}}
	cur := Snapshot{Counters: []CounterSnap{
		{Name: "a", Value: 25, Shards: []uint64{20, 5}},
		{Name: "new", Value: 7},
	}}
	d := Delta(prev, cur)
	if got := d.Counter("a"); got != 15 {
		t.Fatalf("a delta = %d, want 15", got)
	}
	if got := d.Counter("new"); got != 7 {
		t.Fatalf("new delta = %d, want 7 (absent in prev diffs against 0)", got)
	}
	for _, c := range d.Counters {
		if c.Name == "gone" {
			t.Fatal("counter present only in prev must be omitted")
		}
		if len(c.Shards) != 0 {
			t.Fatal("delta must drop per-shard breakdowns")
		}
	}
}

func TestDeltaCounterReset(t *testing.T) {
	prev := Snapshot{Counters: []CounterSnap{{Name: "a", Value: 100}}}
	cur := Snapshot{Counters: []CounterSnap{{Name: "a", Value: 12}}}
	if got := Delta(prev, cur).Counter("a"); got != 12 {
		t.Fatalf("reset counter delta = %d, want cur's full value 12", got)
	}
}

func TestDeltaGaugesKeepCurrent(t *testing.T) {
	prev := Snapshot{Gauges: []GaugeSnap{{Name: "g", Value: 3}}}
	cur := Snapshot{Gauges: []GaugeSnap{{Name: "g", Value: -2}}}
	v, ok := Delta(prev, cur).Gauge("g")
	if !ok || v != -2 {
		t.Fatalf("gauge = %d,%v, want current value -2", v, ok)
	}
}

func TestDeltaHistograms(t *testing.T) {
	prevState := histState(0.001, 0.002)
	curState := histState(0.001, 0.002, 0.004, 0.008)
	prev := Snapshot{Histograms: []HistSnap{{Name: "h", State: prevState}}}
	cur := Snapshot{Histograms: []HistSnap{{Name: "h", State: curState}}}
	d := Delta(prev, cur)
	hs, ok := d.Histogram("h")
	if !ok {
		t.Fatal("histogram missing from delta")
	}
	if hs.State.Count != 2 {
		t.Fatalf("window count = %d, want 2", hs.State.Count)
	}
	// The window holds exactly {0.004, 0.008}: check sum and the rebuilt
	// quantiles land in that range.
	if math.Abs(hs.State.Sum-0.012) > 1e-12 {
		t.Fatalf("window sum = %g, want 0.012", hs.State.Sum)
	}
	if q := hs.Quantile(0.99); q < 0.004 || q > 0.02 {
		t.Fatalf("window p99 = %g, want within the window's observations", q)
	}
	if q := hs.Quantile(0.01); q < 0.002 || q > 0.008 {
		t.Fatalf("window p1 = %g, want near 0.004", q)
	}
}

func TestDeltaHistogramReset(t *testing.T) {
	prevState := histState(0.001, 0.002, 0.003)
	curState := histState(0.005)
	prev := Snapshot{Histograms: []HistSnap{{Name: "h", State: prevState}}}
	cur := Snapshot{Histograms: []HistSnap{{Name: "h", State: curState}}}
	hs, _ := Delta(prev, cur).Histogram("h")
	if hs.State.Count != 1 || math.Abs(hs.State.Sum-0.005) > 1e-12 {
		t.Fatalf("reset histogram must keep cur whole: count=%d sum=%g", hs.State.Count, hs.State.Sum)
	}
}

func TestDeltaHistogramSpecMismatch(t *testing.T) {
	prev := Snapshot{Histograms: []HistSnap{{Name: "h", State: specState(1e-3, 10, 32, 0.5)}}}
	cur := Snapshot{Histograms: []HistSnap{{Name: "h", State: histState(0.001)}}}
	hs, _ := Delta(prev, cur).Histogram("h")
	if hs.State.Count != 1 {
		t.Fatalf("spec-mismatched diff must keep cur whole: count=%d", hs.State.Count)
	}
}

func TestDeltaEmptyWindow(t *testing.T) {
	s := Snapshot{
		Counters:   []CounterSnap{{Name: "a", Value: 9}},
		Histograms: []HistSnap{{Name: "h", State: histState(0.001, 0.002)}},
	}
	d := Delta(s, s)
	if got := d.Counter("a"); got != 0 {
		t.Fatalf("idle counter delta = %d, want 0", got)
	}
	hs, _ := d.Histogram("h")
	if hs.State.Count != 0 || hs.State.Sum != 0 || hs.State.VMin != 0 || hs.State.VMax != 0 {
		t.Fatalf("idle histogram delta not empty: %+v", hs.State)
	}
}

func TestDeltaAgainstZeroSnapshot(t *testing.T) {
	cur := Snapshot{
		Counters:   []CounterSnap{{Name: "a", Value: 4}},
		Histograms: []HistSnap{{Name: "h", State: histState(0.001)}},
	}
	d := Delta(Snapshot{}, cur)
	if got := d.Counter("a"); got != 4 {
		t.Fatalf("delta vs zero = %d, want 4", got)
	}
	hs, _ := d.Histogram("h")
	if hs.State.Count != 1 {
		t.Fatalf("histogram vs zero count = %d, want 1", hs.State.Count)
	}
}
