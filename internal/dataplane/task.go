// Package dataplane implements PRAN's real-time execution layer: per-subframe
// uplink processing tasks running the actual DSP from internal/phy on a
// worker pool under earliest-deadline-first scheduling, with HARQ state
// management and per-task deadline accounting.
//
// LTE FDD HARQ gives the pool a hard budget: an uplink subframe received at
// time t must be decoded (and the ACK/NACK prepared) within ~3 ms. Because
// this DSP (AVX2 turbo and demodulation kernels around a pure-Go FFT and
// equalizer) still runs several times slower than the SIMD C stacks the
// paper used, Config.DeadlineScale stretches the budget by a constant factor
// while preserving every ratio the experiments measure (utilization at a
// given miss rate, EDF-vs-FIFO gaps, pooling factors) — the substitution is
// recorded in DESIGN.md §2.
//
// Hot-path discipline (the "GC vs PHY deadlines" mitigation): each worker
// keeps one phy.TransportProcessor, with its turbo working set, sized for the
// largest transport block and reused for every shape; steady-state
// processing performs no heap allocation and a worker's memory does not
// depend on the shapes it has decoded.
//
// Concurrency: a Pool owns Config.Workers resident goroutines, and each
// decodes a task's code blocks on its own goroutine; tasks enter through
// Submit (any goroutine) and results leave on the pool's completion
// channel. Each worker owns its processor and its metrics outright —
// nothing mutable on the processing path is shared between workers (the
// interleaver and rate-match tables they share are read-only), so the hot
// path takes no locks; per-worker metrics merge at collection points. The
// degradation ladder adds one more goroutine when Degrade.Enable is set —
// the headroom controller, which writes per-cell level words that Submit
// reads via atomic loads; workers only ever see the level frozen into
// Task.Degrade at submission (see degradeState). The full threading model is
// documented in docs/concurrency.md.
package dataplane

import (
	"container/heap"
	"time"

	"pran/internal/cluster"
	"pran/internal/frame"
	"pran/internal/phy"
)

// HARQBudget is the LTE FDD uplink processing budget the paper designs
// around: subframe reception to ACK/NACK in 3 ms, of which roughly 2 ms are
// available for pool compute after fronthaul and TX preparation.
const HARQBudget = 2 * time.Millisecond

// Task is one UE allocation's uplink processing work item. Tasks are created
// by the cell ingest path (one per allocation per subframe) and executed by
// pool workers.
type Task struct {
	// Cell and TTI identify the subframe this task belongs to.
	Cell frame.CellID
	// PCI is the cell's physical identity, needed for descrambling.
	PCI uint16
	// TTI is the subframe counter at which the allocation was received.
	TTI frame.TTI
	// Alloc is the UE allocation to decode.
	Alloc frame.Allocation
	// REs holds the allocation's extracted resource elements (constellation
	// symbols) — the demodulator input.
	REs []complex128
	// N0 is the noise power estimate for LLR scaling.
	N0 float64
	// Deadline is the absolute wall-clock completion deadline.
	Deadline time.Time
	// Enqueued is when the task entered the pool.
	Enqueued time.Time
	// Degrade is the degradation-ladder level this task decodes at,
	// stamped by Submit from the cell's current level. It selects the
	// worker's iteration cap and kernel override.
	Degrade cluster.DegradationLevel

	// Soft, when non-nil, supplies the HARQ soft-combining buffer for this
	// (cell, RNTI, HARQ process); the HARQ manager owns its lifecycle. The
	// task owns the buffer's contents from submission until the pool
	// releases softState after OnDone.
	Soft *phy.SoftBuffer
	// softState, when non-nil, is the HARQ state handle whose busy flag
	// the pool clears once the task is done with Soft.
	softState *harqState
	// runInstead, when non-nil, replaces the default uplink decode with a
	// custom work function (the downlink encode path uses this so both
	// directions share the pool's queue and deadline accounting).
	runInstead func(w *worker, t *Task)
	// OnDone, when non-nil, runs on the worker goroutine after processing.
	OnDone func(*Task)

	// Result fields, valid after processing.

	// Payload is the decoded transport block (nil on failure). It aliases
	// worker-owned memory; copy it before the next task if retained.
	Payload []byte
	// Err is the decode error (phy.ErrCRC on decode failure), nil on
	// success, or ErrAbandoned if the deadline passed before processing
	// started.
	Err error
	// Started and Finished bracket the processing time.
	Started, Finished time.Time
	// TurboIterations is the decoder iteration count consumed.
	TurboIterations int
}

// Missed reports whether the task finished (or was abandoned) after its
// deadline.
func (t *Task) Missed() bool { return t.Finished.After(t.Deadline) }

// Latency returns enqueue-to-finish latency.
func (t *Task) Latency() time.Duration { return t.Finished.Sub(t.Enqueued) }

// taskQueue is a deadline-ordered heap (EDF). FIFO mode is implemented by
// ordering on Enqueued instead; ties break by insertion order via seq.
type taskQueue struct {
	items []*Task
	seqs  []uint64
	seq   uint64
	fifo  bool
}

func (q *taskQueue) Len() int { return len(q.items) }

func (q *taskQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	var ta, tb time.Time
	if q.fifo {
		ta, tb = a.Enqueued, b.Enqueued
	} else {
		ta, tb = a.Deadline, b.Deadline
	}
	if !ta.Equal(tb) {
		return ta.Before(tb)
	}
	return q.seqs[i] < q.seqs[j]
}

func (q *taskQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.seqs[i], q.seqs[j] = q.seqs[j], q.seqs[i]
}

func (q *taskQueue) Push(x any) {
	q.items = append(q.items, x.(*Task))
	q.seqs = append(q.seqs, q.seq)
	q.seq++
}

func (q *taskQueue) Pop() any {
	n := len(q.items)
	t := q.items[n-1]
	q.items[n-1] = nil
	q.items = q.items[:n-1]
	q.seqs = q.seqs[:n-1]
	return t
}

// push/pop wrappers keep heap usage local.
func (q *taskQueue) push(t *Task) { heap.Push(q, t) }
func (q *taskQueue) pop() *Task   { return heap.Pop(q).(*Task) }
