package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded from the harness's side of a call into
// the program; spans inside the program are a later change.
const (
	spanSubframe  = "bench.cell_subframe"
	spanIngest    = "dataplane.ingest"
	spanFFT       = "ingest.fft"
	spanEstimate  = "ingest.estimate"
	spanQueueWait = "pool.queue_wait"
	spanExec      = "pool.exec"
	spanRound     = "bench.control_round"
	spanObserve   = "controller.observe"
	spanStep      = "controller.step"
	spanDiff      = "bench.diff"
	spanPushAck   = "ctrlproto.push_ack"
	spanScrape    = "telemetry.scrape"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer's base; Parent is 0 for a root, and Root is the id of the
// cell-subframe or control round the span belongs to.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Root   uint64 `json:"root"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. While off, add is a
// single atomic load, so the untraced run pays nothing for it.
type tracer struct {
	on   atomic.Bool
	base time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start switches recording on with an empty, pre-sized buffer.
func (t *tracer) start(capacity int) {
	t.mu.Lock()
	t.spans = make([]span, 0, capacity)
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

// id returns a fresh span id, or 0 while recording is off.
func (t *tracer) id() uint64 {
	if !t.on.Load() {
		return 0
	}
	return t.next.Add(1)
}

// add records a span and returns its id. A zero root means the span's root
// was released while recording was off; such spans are dropped.
func (t *tracer) add(name string, start, end time.Time, id, parent, root uint64) uint64 {
	if !t.on.Load() || root == 0 {
		return 0
	}
	if id == 0 {
		id = t.next.Add(1)
	}
	s := span{Name: name, ID: id, Parent: parent, Root: root,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// selfTimeShare is the root spans' self time over their duration, where a
// span's self time is its duration minus the part its child spans cover.
func (t *tracer) selfTimeShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self, total int64
	for _, s := range t.spans {
		if s.Parent != 0 {
			continue
		}
		total += s.End - s.Start
		self += s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return ratio(float64(self), float64(total))
}

// covered is the length of the union of the spans' intervals inside [lo, hi].
func covered(ss []span, lo, hi int64) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var sum int64
	at := lo
	for _, s := range ss {
		a, b := max(s.Start, at), min(s.End, hi)
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// writeFile dumps the recorded spans as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
