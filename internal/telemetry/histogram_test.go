package telemetry

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// mergeStates merges histogram states through MergeAll, the path a scrape
// takes.
func mergeStates(states ...HistogramState) (HistogramState, error) {
	snaps := make([]Snapshot, len(states))
	for i, st := range states {
		snaps[i] = Snapshot{Histograms: []HistSnap{{Name: "h", State: st}}}
	}
	merged, err := MergeAll(snaps...)
	if err != nil {
		return HistogramState{}, err
	}
	return merged.Histograms[0].State, nil
}

func TestHistogramBasics(t *testing.T) {
	h := New(1).Histogram("h", 1e-6, 10, 256)
	for i := 1; i <= 100; i++ {
		h.Observe(0, float64(i)*1e-3)
	}
	st := h.state()
	if st.Count != 100 {
		t.Fatalf("count %d", st.Count)
	}
	if math.Abs(st.mean()-0.0505) > 1e-9 {
		t.Fatalf("mean %v", st.mean())
	}
	if st.VMin != 1e-3 || st.VMax != 0.1 {
		t.Fatalf("min/max %v/%v", st.VMin, st.VMax)
	}
	med := st.quantile(0.5)
	if med < 0.04 || med > 0.06 {
		t.Fatalf("median %v outside [0.04, 0.06]", med)
	}
	p99 := st.quantile(0.99)
	if p99 < 0.09 || p99 > 0.11 {
		t.Fatalf("p99 %v", p99)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := New(1).LatencyHistogram("h")
	if st := h.state(); st.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(0, 0.5)
	if st := h.state(); st.quantile(0) != 0.5 || st.quantile(1) != 0.5 {
		t.Fatal("single-observation quantile edges wrong")
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := New(1).Histogram("h", 1e-3, 1, 64)
	h.Observe(0, 1e-6) // below
	h.Observe(0, 100)  // above
	st := h.state()
	if st.Count != 2 || st.Low != 1 || st.High != 1 {
		t.Fatal("out-of-range observations must still count")
	}
	if st.VMax != 100 || st.VMin != 1e-6 {
		t.Fatal("extrema must track out-of-range values")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := New(1).Histogram("h", 1e-6, 10, 128)
	b := New(1).Histogram("h", 1e-6, 10, 128)
	for i := 0; i < 500; i++ {
		a.Observe(0, 0.001)
		b.Observe(0, 0.1)
	}
	merged, err := mergeStates(a.state(), b.state())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count != 1000 {
		t.Fatalf("merged count %d", merged.Count)
	}
	med := merged.quantile(0.5)
	if med < 0.0009 || med > 0.12 {
		t.Fatalf("merged median %v", med)
	}
	if _, err := mergeStates(merged, specState(1e-5, 10, 128)); err == nil {
		t.Fatal("layout mismatch accepted")
	}
}

func TestHistogramMergeCrossSpecError(t *testing.T) {
	// Every way two specs can differ must fail loudly with ErrSpecMismatch;
	// the error text must name both layouts so a scrape-merge failure is
	// diagnosable from the log line alone.
	base := specState(1e-6, 10, 128)
	for _, other := range []HistogramState{
		specState(1e-5, 10, 128), // different min
		specState(1e-6, 20, 128), // different max
		specState(1e-6, 10, 64),  // different resolution
	} {
		_, err := mergeStates(base, other)
		if !errors.Is(err, ErrSpecMismatch) {
			t.Fatalf("cross-spec merge: got %v, want ErrSpecMismatch", err)
		}
		if !strings.Contains(err.Error(), "128") {
			t.Fatalf("error %q does not name the receiver layout", err)
		}
	}
	// Matching specs must still merge.
	if _, err := mergeStates(base, specState(1e-6, 10, 128)); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeOverflowBuckets(t *testing.T) {
	// Observations below min and at/above max live in the low/high overflow
	// counters; a merge must carry them across, keep the total count
	// consistent, and keep quantiles clamping to the covered range.
	a := New(1).Histogram("h", 1e-3, 1, 64)
	b := New(1).Histogram("h", 1e-3, 1, 64)
	for i := 0; i < 10; i++ {
		a.Observe(0, 1e-6) // low overflow in a
		b.Observe(0, 50)   // high overflow in b
	}
	a.Observe(0, 0.5)
	st, err := mergeStates(a.state(), b.state())
	if err != nil {
		t.Fatal(err)
	}
	if st.Low != 10 || st.High != 10 {
		t.Fatalf("overflow counters low=%d high=%d after merge", st.Low, st.High)
	}
	var inRange uint64
	for _, c := range st.Buckets {
		inRange += c
	}
	if st.Count != st.Low+st.High+inRange {
		t.Fatalf("count %d != low %d + high %d + buckets %d", st.Count, st.Low, st.High, inRange)
	}
	if st.Count != 21 {
		t.Fatalf("merged count %d", st.Count)
	}
	// Quantiles clamp: the lowest mass sits at the range floor, the highest
	// beyond the ceiling (reported as the observed max).
	if q := st.quantile(0.01); q > 1e-3 {
		t.Fatalf("low-overflow quantile %v above range floor", q)
	}
	if q := st.quantile(1); q != 50 {
		t.Fatalf("max quantile %v, want observed max 50", q)
	}
	if st.VMin != 1e-6 || st.VMax != 50 {
		t.Fatalf("extrema %v/%v not carried through merge", st.VMin, st.VMax)
	}
}

func TestHistogramStateRoundtrip(t *testing.T) {
	h := New(1).Histogram("h", 1e-6, 10, 128)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		h.Observe(0, math.Exp(rng.NormFloat64()*2-6))
	}
	h.Observe(0, 1e-9) // force an overflow each side
	h.Observe(0, 100)
	want := h.state()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got HistogramState
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count || got.mean() != want.mean() || got.VMin != want.VMin || got.VMax != want.VMax {
		t.Fatalf("state roundtrip changed summary: %v vs %v", got.summary(), want.summary())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got.quantile(q) != want.quantile(q) {
			t.Fatalf("quantile %v changed through roundtrip", q)
		}
	}
	// A merge with itself doubles everything.
	doubled, err := mergeStates(got, want)
	if err != nil {
		t.Fatal(err)
	}
	if doubled.Count != 2*want.Count {
		t.Fatalf("merge-state count %d", doubled.Count)
	}
	// Invalid and cross-spec state is rejected.
	bad := want
	bad.Min = 0
	if _, err := mergeStates(bad); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("invalid state accepted: %v", err)
	}
	if _, err := mergeStates(doubled, bad); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("invalid merged state accepted: %v", err)
	}
	if _, err := mergeStates(doubled, specState(1e-5, 10, 128)); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("cross-spec merge-state accepted: %v", err)
	}
}

func TestHistogramStateEmptyEncodable(t *testing.T) {
	// An empty histogram's internal extrema are ±Inf; the exported state
	// must stay JSON-encodable, and so must a merge of empty states.
	h := New(1).Histogram("h", 1e-6, 10, 8)
	st := h.state()
	if st.VMin != 0 || st.VMax != 0 {
		t.Fatalf("empty-state extrema %v/%v not normalized", st.VMin, st.VMax)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("empty state not JSON-encodable: %v", err)
	}
	merged, err := mergeStates(st, st)
	if err != nil {
		t.Fatal(err)
	}
	if merged.VMin != 0 || merged.VMax != 0 {
		t.Fatalf("merged empty-state extrema %v/%v not normalized", merged.VMin, merged.VMax)
	}
	// The empty side's zero extrema are not observations.
	h.Observe(0, 0.5)
	if merged, _ = mergeStates(st, h.state()); merged.VMin != 0.5 || merged.VMax != 0.5 {
		t.Fatal("merge with an empty state lost the ±Inf extrema sentinels")
	}
}

func TestHistogramInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec did not panic")
		}
	}()
	New(1).Histogram("h", -1, 10, 64)
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Log-uniform samples: quantile estimates must land within a bucket
	// width of the true quantiles.
	rng := rand.New(rand.NewSource(5))
	h := New(1).Histogram("h", 1e-6, 16, 512)
	var xs []float64
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.Float64()*math.Log(1e6)) * 1e-6 // [1e-6, 1]
		xs = append(xs, v)
		h.Observe(0, v)
	}
	sort.Float64s(xs)
	st := h.state()
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		est := st.quantile(q)
		true_ := xs[int(q*float64(len(xs)-1))]
		ratio := est / true_
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("q=%v: est %v vs true %v", q, est, true_)
		}
	}
}

func TestHistogramString(t *testing.T) {
	r := New(1)
	r.LatencyHistogram("h").Observe(0, 0.001)
	if text := r.Snapshot().String(); !strings.Contains(text, "histogram h n=1 mean=0.001 ") {
		t.Fatalf("String: %q", text)
	}
}
