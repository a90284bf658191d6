package telemetry

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// ErrSpecMismatch marks an attempt to merge histogram states whose bucket
// specifications differ, or a state whose specification is invalid.
// Aggregation points — the snapshot merger, the cluster-wide scrape — must
// surface it rather than mis-bin observations.
var ErrSpecMismatch = errors.New("telemetry: histogram spec mismatch")

// geometry is the one log-scale bucket layout every histogram uses: n
// buckets over [min, max), bucket i covering [min·e^(i/scale),
// min·e^((i+1)/scale)) with scale = n / ln(max/min). The record path bins
// with it and every state query reads bucket edges from it.
type geometry struct {
	min, max float64
	n        int
	scale    float64
}

func newGeometry(min, max float64, n int) geometry {
	return geometry{min: min, max: max, n: n, scale: float64(n) / math.Log(max/min)}
}

func (g geometry) valid() bool { return g.min > 0 && g.max > g.min && g.n > 0 }

// bucket returns the bucket of an in-range observation (min ≤ v < max).
func (g geometry) bucket(v float64) int {
	i := int(math.Log(v/g.min) * g.scale)
	if i < 0 {
		i = 0
	}
	if i >= g.n {
		i = g.n - 1
	}
	return i
}

// upper returns the upper edge of bucket i.
func (g geometry) upper(i int) float64 { return g.min * math.Exp(float64(i+1)/g.scale) }

// histShard is one shard of a histogram: the log-scale bucket counts plus
// the streaming moments and extrema. Buckets lead so the hot bucket
// increment lands in the same lines as the shard header.
type histShard struct {
	low, high atomic.Uint64
	sumBits   atomic.Uint64 // float64 bits, CAS-accumulated
	sumSqBits atomic.Uint64
	minBits   atomic.Uint64 // float64 bits; math.Inf(1) when empty
	maxBits   atomic.Uint64 // float64 bits; math.Inf(-1) when empty
	_         [16]byte
	buckets   []atomic.Uint64
}

// Histogram is a sharded log-scale histogram; snapshots export it as
// HistogramState.
type Histogram struct {
	name string
	geometry
	shards []histShard
	mask   uint32
}

// Observe records one non-negative measurement on the given shard. The
// record path performs no allocation and takes no locks.
func (h *Histogram) Observe(shard int, v float64) {
	s := &h.shards[uint32(shard)&h.mask]
	switch {
	case v < h.min:
		s.low.Add(1)
	case v >= h.max:
		s.high.Add(1)
	default:
		s.buckets[h.bucket(v)].Add(1)
	}
	addFloat(&s.sumBits, v)
	addFloat(&s.sumSqBits, v*v)
	casMin(&s.minBits, v)
	casMax(&s.maxBits, v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(shard int, d time.Duration) {
	h.Observe(shard, d.Seconds())
}

// addFloat accumulates a float64 into atomic bits via CAS. Shards are
// effectively single-writer (each worker records into its own), so the loop
// converges on the first iteration; the CAS keeps accidental multi-writer
// use correct rather than silently lossy.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func casMin(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// state merges a histogram's shards into exported state. Count derives from
// the bucket reads so Count == Low + High + Σ Buckets holds in every
// snapshot, even mid-recording.
func (h *Histogram) state() HistogramState {
	st := HistogramState{Min: h.min, Max: h.max, Buckets: make([]uint64, h.n)}
	vMin, vMax := math.Inf(1), math.Inf(-1)
	for i := range h.shards {
		s := &h.shards[i]
		for b := range s.buckets {
			c := s.buckets[b].Load()
			st.Buckets[b] += c
			st.Count += c
		}
		low, high := s.low.Load(), s.high.Load()
		st.Low += low
		st.High += high
		st.Count += low + high
		st.Sum += math.Float64frombits(s.sumBits.Load())
		st.SumSq += math.Float64frombits(s.sumSqBits.Load())
		if v := math.Float64frombits(s.minBits.Load()); v < vMin {
			vMin = v
		}
		if v := math.Float64frombits(s.maxBits.Load()); v > vMax {
			vMax = v
		}
	}
	if st.Count > 0 && !math.IsInf(vMin, 1) {
		st.VMin, st.VMax = vMin, vMax
	}
	return st
}

// HistogramState is a histogram's raw state, the form histograms take in a
// snapshot, on the wire (stats reports, JSON exposition) and through a
// merge or a window delta. VMin/VMax are reported as 0 when Count is 0 so
// the struct always JSON-encodes (an empty histogram's extrema are ±Inf,
// which encoding/json rejects).
type HistogramState struct {
	// Min and Max are the bucket range spec; len(Buckets) its resolution.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Buckets holds the per-bucket observation counts.
	Buckets []uint64 `json:"buckets"`
	// Count is the total number of observations, including overflows.
	Count uint64 `json:"count"`
	// Low and High count observations below Min and at/above Max.
	Low  uint64 `json:"low"`
	High uint64 `json:"high"`
	// Sum and SumSq accumulate Σv and Σv².
	Sum   float64 `json:"sum"`
	SumSq float64 `json:"sum_sq"`
	// VMin and VMax are the observed extrema (0 when Count is 0).
	VMin float64 `json:"vmin"`
	VMax float64 `json:"vmax"`
}

// spec validates the state's bucket geometry, which typically arrived over
// the wire: a malformed one is an error, not a panic.
func (s *HistogramState) spec() (geometry, error) {
	g := newGeometry(s.Min, s.Max, len(s.Buckets))
	if !g.valid() {
		return geometry{}, fmt.Errorf("telemetry: invalid histogram state min=%v max=%v n=%d: %w",
			s.Min, s.Max, len(s.Buckets), ErrSpecMismatch)
	}
	return g, nil
}

// mean returns Sum/Count, or 0 if empty.
func (s *HistogramState) mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket upper
// edges; q ≤ 0 and q ≥ 1 return the observed extrema, and low-overflow mass
// clamps to Min. An empty or invalid state reads 0.
func (s *HistogramState) quantile(q float64) float64 {
	g, err := s.spec()
	if err != nil || s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.VMin
	}
	if q >= 1 {
		return s.VMax
	}
	target := q * float64(s.Count)
	acc := float64(s.Low)
	if acc >= target {
		return s.Min
	}
	for i, c := range s.Buckets {
		acc += float64(c)
		if acc >= target {
			return g.upper(i)
		}
	}
	return s.VMax
}

// summary renders the one-line form of the text exposition.
func (s *HistogramState) summary() string {
	return fmt.Sprintf("n=%d mean=%.6g p50=%.6g p95=%.6g p99=%.6g max=%.6g",
		s.Count, s.mean(), s.quantile(0.50), s.quantile(0.95), s.quantile(0.99), s.quantile(1))
}

// accumulator starts a merge from s: a validated copy owning its buckets,
// with the extrema of an empty state at their ±Inf sentinels so merge can
// take plain minima and maxima. MergeAll restores the wire form.
func (s HistogramState) accumulator() (HistogramState, error) {
	if _, err := s.spec(); err != nil {
		return HistogramState{}, err
	}
	s.Buckets = append([]uint64(nil), s.Buckets...)
	if s.Count == 0 {
		s.VMin, s.VMax = math.Inf(1), math.Inf(-1)
	}
	return s, nil
}

// merge adds o's observations into an accumulator. The two specs must be
// identical; a cross-spec merge is an explicit error naming both layouts,
// never a silent mis-binning. The low/high overflow counters merge like any
// bucket.
func (s *HistogramState) merge(o HistogramState) error {
	if _, err := o.spec(); err != nil {
		return err
	}
	if len(s.Buckets) != len(o.Buckets) || s.Min != o.Min || s.Max != o.Max {
		return fmt.Errorf("telemetry: cannot merge histogram spec [%g, %g]/%d with [%g, %g]/%d: %w",
			s.Min, s.Max, len(s.Buckets), o.Min, o.Max, len(o.Buckets), ErrSpecMismatch)
	}
	for i, c := range o.Buckets {
		s.Buckets[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.SumSq += o.SumSq
	s.Low += o.Low
	s.High += o.High
	if o.Count > 0 {
		if o.VMin < s.VMin {
			s.VMin = o.VMin
		}
		if o.VMax > s.VMax {
			s.VMax = o.VMax
		}
	}
	return nil
}
