// Package telemetry is PRAN's runtime observability layer: a lock-free,
// sharded metrics registry the hot paths record into while scrapers read
// concurrently, merged on demand into immutable snapshots with a text/JSON
// exposition format.
//
// It answers "what is the pool doing *right now*" without stopping it, and
// it is the repository's one histogram implementation: a Histogram records
// into one log-scale bucket geometry, and a snapshot exports it as
// HistogramState, the form quantile queries, merges (across processes too:
// stats reports carry it) and window deltas work on.
//
// # Concurrency and shard model
//
// Every metric is a vector of cache-line-padded atomic slots, one per shard.
// A recorder passes its shard index (pool workers use their worker ID, the
// driver side uses NumShards-1); indices are masked into range, so any int
// is safe. Records are single atomic RMW operations — no locks, no
// allocation, no branching on registry state — which makes the record path
// safe from any goroutine and cheap enough to leave on in measured runs
// (experiment E14 pins the overhead).
//
// Shards exist purely to avoid cross-core cache-line contention; correctness
// never depends on shard ownership. Snapshot sums the shards.
//
// # Consistency
//
// A snapshot is not a point-in-time cut: each slot is read atomically but
// the metric set is read while recorders keep running. The guarantees are
// per-metric: counters are monotonic across snapshots, and a histogram's
// Count equals Low + High + Σ Buckets by construction (Count is derived from
// the bucket reads, not read separately). Sum/SumSq may trail the bucket
// counts by in-flight observations; derived means are approximate during
// recording and exact once recorders quiesce.
package telemetry

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// slot is one shard's counter cell, padded to a cache line so adjacent
// shards never false-share.
type slot struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	name  string
	slots []slot
	mask  uint32
}

// Add increments the counter by n on the given shard.
func (c *Counter) Add(shard int, n uint64) {
	c.slots[uint32(shard)&c.mask].v.Add(n)
}

// Inc increments the counter by one on the given shard.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Value sums the shards.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.slots {
		total += c.slots[i].v.Load()
	}
	return total
}

// Gauge is an instantaneous value. It is a single slot, not sharded: gauges
// represent one quantity (queue depth, per-cell demand), not a per-shard
// accumulation, and are written at far lower rates than counters.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named metrics. Registration (Counter/Gauge/Histogram
// lookups) takes the registry mutex and may allocate — resolve handles once
// at setup, not on hot paths. Recording through the returned handles is
// lock-free. Snapshot may run concurrently with recording.
type Registry struct {
	shards int

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns a registry whose metric vectors carry the given number of
// shards, rounded up to a power of two (minimum 1) so shard indices mask
// instead of divide.
func New(shards int) *Registry {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Registry{
		shards:   n,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry components fall back to when
// not handed an explicit one — this is what makes telemetry default-on.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry, sized to GOMAXPROCS shards.
// Multiple pools may share it; counters then aggregate across pools.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = New(runtime.GOMAXPROCS(0))
	})
	return defaultReg
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, slots: make([]slot, r.shards), mask: uint32(r.shards - 1)}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// DefaultHistBuckets is the per-histogram resolution; the [min, max] range
// is chosen per metric. 128 buckets over a typical [1µs, 16s] range gives
// ~12% relative bucket width — enough for p50/p95/p99 at scrape time.
const DefaultHistBuckets = 128

// Histogram returns the named log-scale histogram covering [min, max) with
// n buckets, creating it on first use. Requesting an existing name with a
// different spec panics: two call sites disagreeing on a metric's geometry
// is a programming error that silent reuse would turn into mis-binned data.
func (r *Registry) Histogram(name string, min, max float64, n int) *Histogram {
	g := newGeometry(min, max, n)
	if !g.valid() {
		panic(fmt.Sprintf("telemetry: invalid histogram spec %q min=%v max=%v n=%d", name, min, max, n))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		if h.min != min || h.max != max || h.n != n {
			panic(fmt.Sprintf("telemetry: histogram %q re-registered with spec [%g, %g]/%d, have [%g, %g]/%d",
				name, min, max, n, h.min, h.max, h.n))
		}
		return h
	}
	h := &Histogram{
		name:     name,
		geometry: g,
		shards:   make([]histShard, r.shards),
		mask:     uint32(r.shards - 1),
	}
	for i := range h.shards {
		h.shards[i].buckets = make([]atomic.Uint64, n)
		h.shards[i].minBits.Store(math.Float64bits(math.Inf(1)))
		h.shards[i].maxBits.Store(math.Float64bits(math.Inf(-1)))
	}
	r.hists[name] = h
	return h
}

// LatencyHistogram returns the named histogram with the standard latency
// range [1µs, 16s) at DefaultHistBuckets resolution — the spec every
// latency-like metric in the data plane shares, so cross-agent merges never
// hit a spec mismatch.
func (r *Registry) LatencyHistogram(name string) *Histogram {
	return r.Histogram(name, 1e-6, 16, DefaultHistBuckets)
}

// Snapshot captures every metric into an immutable Snapshot. It may run
// concurrently with recording; see the package comment for the consistency
// model.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	var s Snapshot
	for _, c := range counters {
		cs := CounterSnap{Name: c.name, Shards: make([]uint64, len(c.slots))}
		for i := range c.slots {
			v := c.slots[i].v.Load()
			cs.Shards[i] = v
			cs.Value += v
		}
		s.Counters = append(s.Counters, cs)
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, HistSnap{Name: h.name, State: h.state()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
