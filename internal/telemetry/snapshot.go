package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// CounterSnap is one counter's snapshot: the total plus the per-shard
// breakdown (pool workers map one-to-one onto shards, so Shards doubles as
// the per-worker view; it is dropped when snapshots from different processes
// merge, where shard identity is meaningless).
type CounterSnap struct {
	Name   string   `json:"name"`
	Value  uint64   `json:"value"`
	Shards []uint64 `json:"shards,omitempty"`
}

// GaugeSnap is one gauge's snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistSnap is one histogram's snapshot.
type HistSnap struct {
	Name  string         `json:"name"`
	State HistogramState `json:"state"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket upper
// edges; an empty or malformed state reads 0.
func (h HistSnap) Quantile(q float64) float64 { return h.State.quantile(q) }

// Snapshot is an immutable capture of a registry (or a merge of several).
// The zero value is an empty snapshot.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters,omitempty"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms,omitempty"`
}

// Counter returns the named counter's total, or 0 when absent.
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value and whether it exists.
func (s Snapshot) Gauge(name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram snapshot and whether it exists.
func (s Snapshot) Histogram(name string) (HistSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistSnap{}, false
}

// Merge folds other into a new snapshot; see MergeAll.
func (s Snapshot) Merge(other Snapshot) (Snapshot, error) { return MergeAll(s, other) }

// MergeAll merges any number of snapshots into a new one: counters and
// gauges sum by name, histograms merge bucket-wise in the order given.
// Merging histograms with mismatched specs is an explicit error
// (ErrSpecMismatch) — the scrape layer must surface disagreeing agents, not
// blend their buckets. Per-shard counter breakdowns are dropped, since shard
// identity does not survive aggregation across processes.
func MergeAll(snaps ...Snapshot) (Snapshot, error) {
	counters := make(map[string]uint64)
	gauges := make(map[string]int64)
	hists := make(map[string]*HistogramState)
	for _, s := range snaps {
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range s.Gauges {
			gauges[g.Name] += g.Value
		}
		for _, h := range s.Histograms {
			var err error
			if cur, ok := hists[h.Name]; ok {
				err = cur.merge(h.State)
			} else {
				var acc HistogramState
				acc, err = h.State.accumulator()
				hists[h.Name] = &acc
			}
			if err != nil {
				return Snapshot{}, fmt.Errorf("telemetry: histogram %q: %w", h.Name, err)
			}
		}
	}

	var out Snapshot
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterSnap{Name: name, Value: v})
	}
	for name, v := range gauges {
		out.Gauges = append(out.Gauges, GaugeSnap{Name: name, Value: v})
	}
	for name, h := range hists {
		if h.Count == 0 {
			h.VMin, h.VMax = 0, 0
		}
		out.Histograms = append(out.Histograms, HistSnap{Name: name, State: *h})
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out, nil
}

// WriteText renders the exposition format: one line per metric, sorted by
// name. Counters print the total plus per-shard breakdown when present;
// histograms print count/mean and the scrape-time quantiles.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if len(c.Shards) > 0 && !allZeroButTotal(c.Shards) {
			if _, err := fmt.Fprintf(w, "counter %s %d shards=%s\n", c.Name, c.Value, shardList(c.Shards)); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "counter %s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := h.State.spec(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "histogram %s %s\n", h.Name, h.State.summary()); err != nil {
			return err
		}
	}
	return nil
}

// allZeroButTotal reports whether at most one shard holds mass, in which
// case the breakdown adds no information over the total.
func allZeroButTotal(shards []uint64) bool {
	nonzero := 0
	for _, v := range shards {
		if v != 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

// shardList renders per-shard values compactly ("0,12,9,0").
func shardList(shards []uint64) string {
	var b strings.Builder
	for i, v := range shards {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// String renders the text exposition.
func (s Snapshot) String() string {
	var b strings.Builder
	_ = s.WriteText(&b)
	return b.String()
}

// MarshalJSON/UnmarshalJSON come for free from the exported fields; Encode
// and Decode wrap them for the scrape wire format.

// Encode serializes the snapshot for a stats report frame.
func (s Snapshot) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeSnapshot parses a stats report payload.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: decode snapshot: %w", err)
	}
	return s, nil
}

// Handler serves the exposition endpoint for snapshots produced by src
// (typically Registry.Snapshot, or a cluster-wide scrape+merge). Plain GET
// returns text; ?format=json (or an Accept header preferring JSON) returns
// the JSON encoding.
func Handler(src func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := src()
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			data, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			_, _ = w.Write(append(data, '\n'))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = snap.WriteText(w)
	})
}
