package telemetry

import (
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterShardingAndTotal(t *testing.T) {
	r := New(4)
	c := r.Counter("tasks")
	c.Inc(0)
	c.Add(1, 10)
	c.Add(5, 2) // masks onto shard 1
	if c.Value() != 13 {
		t.Fatalf("total %d", c.Value())
	}
	snap := r.Snapshot()
	if snap.Counter("tasks") != 13 {
		t.Fatalf("snapshot total %d", snap.Counter("tasks"))
	}
	cs := snap.Counters[0]
	if len(cs.Shards) != 4 || cs.Shards[0] != 1 || cs.Shards[1] != 12 {
		t.Fatalf("shard breakdown %v", cs.Shards)
	}
	// Idempotent registration returns the same vector.
	if r.Counter("tasks") != c {
		t.Fatal("re-registration created a new counter")
	}
}

func TestGauge(t *testing.T) {
	r := New(1)
	g := r.Gauge("depth")
	g.Set(7)
	g.Set(5)
	if v, ok := r.Snapshot().Gauge("depth"); !ok || v != 5 {
		t.Fatalf("gauge %d ok=%v", v, ok)
	}
}

func TestHistogramSnapshotInvariant(t *testing.T) {
	r := New(2)
	h := r.LatencyHistogram("lat")
	h.Observe(0, 1e-9) // low overflow
	h.Observe(0, 100)  // high overflow
	for i := 1; i <= 1000; i++ {
		h.Observe(i, float64(i)*1e-5)
	}
	snap, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	st := snap.State
	var inRange uint64
	for _, c := range st.Buckets {
		inRange += c
	}
	if st.Count != st.Low+st.High+inRange {
		t.Fatalf("count %d != low %d + high %d + buckets %d", st.Count, st.Low, st.High, inRange)
	}
	if st.Count != 1002 || st.Low != 1 || st.High != 1 {
		t.Fatalf("counts %d/%d/%d", st.Count, st.Low, st.High)
	}
	if st.VMin != 1e-9 || st.VMax != 100 {
		t.Fatalf("extrema %v/%v", st.VMin, st.VMax)
	}
	// Quantiles from the state: the median of 1e-5..1e-2 uniform mass sits
	// mid-range.
	med := snap.Quantile(0.5)
	if med < 3e-3 || med > 8e-3 {
		t.Fatalf("median %v", med)
	}
	// Mean matches the analytic mean once recorders quiesce.
	want := (100 + 1e-9 + 1e-5*1000*1001/2) / 1002
	if math.Abs(st.mean()-want)/want > 1e-9 {
		t.Fatalf("mean %v want %v", st.mean(), want)
	}
}

func TestHistogramSpecConflictPanics(t *testing.T) {
	r := New(1)
	r.Histogram("h", 1e-6, 1, 32)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.Histogram("h", 1e-6, 2, 32)
}

func TestSnapshotMerge(t *testing.T) {
	a, b := New(1), New(2)
	a.Counter("pool.completed").Add(0, 5)
	b.Counter("pool.completed").Add(0, 7)
	b.Counter("pool.abandoned").Add(1, 1)
	a.Gauge("queue").Set(3)
	b.Gauge("queue").Set(4)
	a.LatencyHistogram("lat").Observe(0, 0.001)
	b.LatencyHistogram("lat").Observe(0, 0.1)

	merged, err := a.Snapshot().Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Counter("pool.completed") != 12 || merged.Counter("pool.abandoned") != 1 {
		t.Fatalf("merged counters %+v", merged.Counters)
	}
	if v, _ := merged.Gauge("queue"); v != 7 {
		t.Fatalf("merged gauge %d", v)
	}
	hs, ok := merged.Histogram("lat")
	if !ok || hs.State.Count != 2 {
		t.Fatalf("merged histogram %+v", hs)
	}
	// Per-shard breakdowns don't survive aggregation.
	for _, c := range merged.Counters {
		if c.Shards != nil {
			t.Fatal("merged counter kept shard breakdown")
		}
	}
	// Spec mismatch is an explicit error.
	c := New(1)
	c.Histogram("lat", 1e-3, 1, 8).Observe(0, 0.01)
	if _, err := merged.Merge(c.Snapshot()); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("cross-spec merge: %v", err)
	}
}

func TestSnapshotEncodeDecodeRoundtrip(t *testing.T) {
	r := New(2)
	r.Counter("c").Add(0, 3)
	r.Gauge("g").Set(-4)
	r.LatencyHistogram("h").Observe(1, 0.25)
	r.LatencyHistogram("empty") // registered but never observed
	snap := r.Snapshot()
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counter("c") != 3 {
		t.Fatal("counter lost")
	}
	if v, _ := got.Gauge("g"); v != -4 {
		t.Fatal("gauge lost")
	}
	hs, ok := got.Histogram("h")
	if !ok || hs.State.Count != 1 || hs.State.VMax != 0.25 {
		t.Fatalf("histogram lost: %+v", hs)
	}
	if _, err := DecodeSnapshot([]byte("{")); err == nil {
		t.Fatal("malformed payload accepted")
	}
}

// FuzzDecodeSnapshot feeds two arbitrary scrape payloads through everything
// a scraper does with them — decode, merge, window delta, text exposition,
// quantile queries — none of which may panic, and checks that merging and
// diffing conserve observations: a successful merge's histogram counts
// (Count, Low, High) are the sums over the same-named inputs, and a
// snapshot's delta against itself holds no observation.
func FuzzDecodeSnapshot(f *testing.F) {
	r := New(2)
	r.Counter("c").Add(1, 3)
	r.Gauge("g").Set(-4)
	r.LatencyHistogram("h").Observe(0, 0.25)
	seed, err := r.Snapshot().Encode()
	if err != nil {
		f.Fatal(err)
	}
	golden, err := goldenRegistry().Snapshot().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, seed)
	f.Add(seed, []byte(`{"histograms":[{"name":"h","state":{"min":1,"max":2,"buckets":[1]}}]}`))
	f.Add(golden, golden)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, errA := DecodeSnapshot(a)
		sb, errB := DecodeSnapshot(b)
		if errA != nil || errB != nil {
			return
		}
		merged, err := MergeAll(sa, sb)
		if err == nil {
			type counts struct{ n, low, high uint64 }
			want := map[string]counts{}
			for _, h := range append(append([]HistSnap(nil), sa.Histograms...), sb.Histograms...) {
				c := want[h.Name]
				want[h.Name] = counts{c.n + h.State.Count, c.low + h.State.Low, c.high + h.State.High}
			}
			if len(merged.Histograms) != len(want) {
				t.Fatalf("merge kept %d histograms of %d names", len(merged.Histograms), len(want))
			}
			for _, h := range merged.Histograms {
				if got := (counts{h.State.Count, h.State.Low, h.State.High}); got != want[h.Name] {
					t.Fatalf("histogram %q merged to count/low/high %v, inputs sum to %v", h.Name, got, want[h.Name])
				}
			}
		}
		for _, s := range []Snapshot{sa, sb, merged} {
			names := map[string]int{}
			for _, h := range s.Histograms {
				names[h.Name]++
			}
			for _, h := range Delta(s, s).Histograms {
				if names[h.Name] == 1 && h.State.Count != 0 {
					t.Fatalf("histogram %q: delta against itself counts %d", h.Name, h.State.Count)
				}
			}
		}
		for _, s := range []Snapshot{sa, sb, merged, Delta(sa, sb), Delta(sb, sa)} {
			_ = s.WriteText(io.Discard)
			for _, h := range s.Histograms {
				for _, q := range []float64{0, 0.5, 0.99, 1} {
					h.Quantile(q)
				}
			}
		}
	})
}

func TestTextExposition(t *testing.T) {
	r := New(2)
	r.Counter("pool.completed").Add(0, 2)
	r.Counter("pool.completed").Add(1, 3)
	r.Gauge("pool.queue_depth").Set(9)
	r.LatencyHistogram("pool.latency_s").Observe(0, 0.002)
	text := r.Snapshot().String()
	for _, want := range []string{
		"counter pool.completed 5 shards=2,3",
		"gauge pool.queue_depth 9",
		"histogram pool.latency_s n=1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := New(1)
	r.Counter("c").Add(0, 1)
	srv := httptest.NewServer(Handler(r.Snapshot))
	defer srv.Close()

	get := func(url string) (string, string) {
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := io.Copy(&b, resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String(), resp.Header.Get("Content-Type")
	}
	body, ctype := get(srv.URL)
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(body, "counter c 1") {
		t.Fatalf("text endpoint: %q %q", ctype, body)
	}
	body, ctype = get(srv.URL + "?format=json")
	if !strings.HasPrefix(ctype, "application/json") || !strings.Contains(body, "\"value\": 1") {
		t.Fatalf("json endpoint: %q %q", ctype, body)
	}
}

// TestConcurrentScrapeWhileRecording is the registry's core concurrency
// contract: recorders hammer counters and histograms from many goroutines
// while a scraper takes snapshots, and every snapshot must satisfy the
// per-metric invariants — counters monotonic, histogram Count equal to the
// sum of its buckets (including overflows) and monotonic. Run under -race
// this also proves the record path is properly synchronized.
func TestConcurrentScrapeWhileRecording(t *testing.T) {
	r := New(4)
	c := r.Counter("ops")
	h := r.LatencyHistogram("lat")
	g := r.Gauge("depth")
	var stop atomic.Bool
	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			v := 1e-6
			for !stop.Load() {
				c.Inc(shard)
				h.Observe(shard, v)
				g.Set(int64(shard))
				v *= 1.7
				if v > 20 {
					v = 1e-7 // sweep through low overflow too
				}
			}
		}(w)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	var lastCount, lastOps uint64
	scrapes := 0
	for time.Now().Before(deadline) {
		snap := r.Snapshot()
		ops := snap.Counter("ops")
		if ops < lastOps {
			t.Errorf("counter went backwards: %d -> %d", lastOps, ops)
			break
		}
		lastOps = ops
		hs, ok := snap.Histogram("lat")
		if !ok {
			t.Error("histogram missing")
			break
		}
		var sum uint64
		for _, b := range hs.State.Buckets {
			sum += b
		}
		if hs.State.Count != hs.State.Low+hs.State.High+sum {
			t.Errorf("histogram count %d != %d+%d+%d", hs.State.Count, hs.State.Low, hs.State.High, sum)
			break
		}
		if hs.State.Count < lastCount {
			t.Errorf("histogram count went backwards: %d -> %d", lastCount, hs.State.Count)
			break
		}
		lastCount = hs.State.Count
		scrapes++
	}
	stop.Store(true)
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("no scrapes completed")
	}
	// After quiescence the totals reconcile exactly.
	snap := r.Snapshot()
	hs, _ := snap.Histogram("lat")
	if hs.State.Count != snap.Counter("ops") {
		t.Fatalf("final histogram count %d != ops %d", hs.State.Count, snap.Counter("ops"))
	}
}

// TestRecordPathZeroAlloc pins the zero-allocation guarantee of the record
// path — the property that lets telemetry stay on during measured runs.
func TestRecordPathZeroAlloc(t *testing.T) {
	r := New(4)
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.LatencyHistogram("h")
	if n := testing.AllocsPerRun(1000, func() { c.Inc(3) }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(42) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op", n)
	}
	v := 0.001
	if n := testing.AllocsPerRun(1000, func() { h.Observe(2, v) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveDuration(1, 3*time.Millisecond) }); n != 0 {
		t.Fatalf("Histogram.ObserveDuration allocates %v/op", n)
	}
}

// BenchmarkTelemetryRecord is the pinned record-path benchmark: one counter
// increment plus one histogram observation, the per-task telemetry cost of
// the data plane. allocs/op must report 0.
func BenchmarkTelemetryRecord(b *testing.B) {
	r := New(4)
	c := r.Counter("c")
	h := r.LatencyHistogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc(i)
		h.Observe(i, 0.0013)
	}
}

// BenchmarkSnapshot sizes the scrape cost (allocates by design; the point
// is that it is cheap enough to run at heartbeat cadence).
func BenchmarkSnapshot(b *testing.B) {
	r := New(8)
	for i := 0; i < 8; i++ {
		r.Counter(names[i%len(names)]).Inc(i)
		r.LatencyHistogram("lat"+names[i%len(names)]).Observe(i, 0.001)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

var names = []string{"a", "b", "c", "d"}
