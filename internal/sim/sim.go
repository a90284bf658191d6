// Package sim provides the small discrete-event engine behind PRAN's
// cluster-scale experiments (pooling gains, elastic scaling, failover).
// Wall-clock experiments (deadline misses under real DSP load) run on the
// real data plane instead; the engine exists so day-long, many-cell sweeps
// finish in seconds while preserving event ordering.
//
// Concurrency: the engine is strictly single-threaded — RunAll executes every
// event handler inline on the calling goroutine, which is what makes runs
// deterministic. Never share one Engine between goroutines; run independent
// simulations on independent engines instead.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// event is a scheduled callback. The callback runs with the engine clock set
// to the event's time and may schedule further events.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use. Engines are not safe for concurrent use: everything happens
// on the goroutine that calls RunAll.
type Engine struct {
	now   time.Duration
	queue eventHeap
	seq   uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule enqueues fn to run at absolute simulated time at. Events at equal
// times run in scheduling order. Scheduling in the past (before Now) is a
// programming error and panics.
func (e *Engine) Schedule(at time.Duration, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	heap.Push(&e.queue, &event{at: at, seq: e.seq, fn: fn})
	e.seq++
}

// After enqueues fn to run delay after the current time.
func (e *Engine) After(delay time.Duration, fn func()) {
	e.Schedule(e.now+delay, fn)
}

// step runs the single earliest pending event, advancing the clock to it.
// It reports whether an event ran.
func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// RunAll executes events in time order until the queue is empty.
func (e *Engine) RunAll() {
	for e.step() {
	}
}

// eventHeap orders events by (time, sequence).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
