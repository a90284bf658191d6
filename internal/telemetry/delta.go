package telemetry

import "sort"

// Delta returns the windowed difference cur − prev: what happened between
// two snapshots of the same source. It is the primitive behind windowed SLO
// evaluation (the soak harness scrapes every window and gates on the diff,
// not on cumulative totals that wash out transient violations).
//
// Semantics per metric kind:
//
//   - Counters subtract by name. A counter that went backwards (cur < prev)
//     means the source restarted and the counter reset; the delta is then
//     cur's full value — everything the restarted source counted happened
//     inside this window. Counters absent from prev diff against 0.
//     Per-shard breakdowns are dropped: shard identity is not stable across
//     a window that may span a restart.
//   - Gauges keep cur's value unchanged — a gauge is instantaneous, so the
//     "value over the window" is simply its current reading.
//   - Histograms diff bucket-wise via HistogramState: per-bucket counts,
//     Count, Low, High, Sum and SumSq subtract. On spec mismatch or a
//     backwards Count (restart), cur's state is kept whole, mirroring the
//     counter-reset rule. VMin/VMax are taken from cur — the true extrema
//     of only-this-window observations are not recoverable from cumulative
//     state, and the window's quantiles (the SLO inputs) come from the
//     diffed buckets, not the extrema.
//
// Metrics present only in prev are omitted: the source stopped exporting
// them, so the window has nothing to report.
//
// Concurrency: Delta is a pure function of two immutable snapshots and is
// safe to call from any goroutine.
func Delta(prev, cur Snapshot) Snapshot {
	var out Snapshot
	for _, c := range cur.Counters {
		d := c.Value
		if p := prev.Counter(c.Name); p <= c.Value {
			d = c.Value - p
		}
		out.Counters = append(out.Counters, CounterSnap{Name: c.Name, Value: d})
	}
	for _, g := range cur.Gauges {
		out.Gauges = append(out.Gauges, GaugeSnap{Name: g.Name, Value: g.Value})
	}
	for _, h := range cur.Histograms {
		state := h.State
		if p, ok := prev.Histogram(h.Name); ok {
			if d, ok := subtractHistState(p.State, h.State); ok {
				state = d
			}
		}
		out.Histograms = append(out.Histograms, HistSnap{Name: h.Name, State: state})
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}

// subtractHistState computes cur − prev bucket-wise. ok is false when the
// states cannot be diffed (spec mismatch, or cur counted less than prev —
// a restarted source), in which case the caller keeps cur whole.
func subtractHistState(prev, cur HistogramState) (HistogramState, bool) {
	if prev.Min != cur.Min || prev.Max != cur.Max || len(prev.Buckets) != len(cur.Buckets) {
		return cur, false
	}
	if cur.Count < prev.Count || cur.Low < prev.Low || cur.High < prev.High {
		return cur, false
	}
	d := cur
	d.Buckets = make([]uint64, len(cur.Buckets))
	for i := range cur.Buckets {
		if cur.Buckets[i] < prev.Buckets[i] {
			return cur, false
		}
		d.Buckets[i] = cur.Buckets[i] - prev.Buckets[i]
	}
	d.Count = cur.Count - prev.Count
	d.Low = cur.Low - prev.Low
	d.High = cur.High - prev.High
	d.Sum = cur.Sum - prev.Sum
	d.SumSq = cur.SumSq - prev.SumSq
	if d.Sum < 0 {
		d.Sum = 0
	}
	if d.SumSq < 0 {
		d.SumSq = 0
	}
	if d.Count == 0 {
		d.VMin, d.VMax = 0, 0
		d.Sum, d.SumSq = 0, 0
	}
	return d, true
}
