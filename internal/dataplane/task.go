// Package dataplane implements PRAN's real-time execution layer: per-subframe
// uplink processing tasks running the actual DSP from internal/phy on a
// worker pool under earliest-deadline-first scheduling, with HARQ state
// management and per-task deadline accounting.
//
// LTE FDD HARQ gives the pool a hard budget: an uplink subframe received at
// time t must be decoded (and the ACK/NACK prepared) within ~3 ms. Because
// this DSP (AVX2 turbo, demodulation and FFT kernels around a pure-Go
// equalizer) still runs slower than the SIMD C stacks the
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
// Concurrency: a Pool owns Config.Workers resident goroutines. Each claims
// a queued task together with the queued tasks whose code blocks can share
// its lockstep span, and decodes all their code blocks on its own
// goroutine; tasks enter through Submit (any goroutine) and results leave
// through each task's OnDone, which runs on the worker that decoded it.
// Each worker owns its processor and its metrics outright —
// nothing mutable on the processing path is shared between workers (the
// interleaver and rate-match tables they share are read-only), so the hot
// path takes no locks; per-worker metrics merge at collection points. The
// degradation ladder adds one more goroutine when Degrade.Enable is set —
// the headroom loop, which writes the pool's one level word that Submit
// reads with an atomic load; workers only ever see the level frozen into
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
	// stamped by Submit from the pool's current level. It selects the
	// worker's iteration cap.
	Degrade cluster.DegradationLevel

	// Soft, when non-nil, supplies the HARQ soft-combining buffer for this
	// (cell, RNTI, HARQ process); the HARQ manager owns its lifecycle. The
	// task owns the buffer's contents from submission until the pool
	// releases softState, just before OnDone: OnDone must not read Soft
	// (none in this module does).
	Soft *phy.SoftBuffer
	// softState, when non-nil, is the HARQ state handle whose busy flag
	// the pool clears once the task is done with Soft.
	softState *harqState
	// span is what a claim shares: the turbo block size and iteration cap
	// (zero K for a task no claim may share), with the task's code-block
	// count; Submit fills it.
	span   spanKey
	blocks int
	// OnDone, when non-nil, runs on the worker goroutine after processing,
	// after the pool's counters include the task and before the task
	// leaves the pool's in-flight count, so it must not wait on Pool.Drain.
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

// spanKey is what the tasks of one claim have in common: their code blocks'
// turbo block size and the iteration cap they decode under.
type spanKey struct {
	k, iterCap int
}

// setSpan fills the task's claim key from its allocation and degradation
// level; a task whose shape does not segment gets the zero key and is
// always claimed alone (its decode then reports the error).
func (t *Task) setSpan() {
	t.span, t.blocks = spanKey{}, 1
	tbs, err := t.Alloc.MCS.TransportBlockSize(t.Alloc.NumPRB)
	if err != nil {
		return
	}
	seg, err := phy.Segment(tbs + 24)
	if err != nil {
		return
	}
	t.span, t.blocks = spanKey{k: seg.K, iterCap: t.Degrade.IterCap()}, seg.C
}

// taskQueue is a deadline-ordered heap (EDF). FIFO mode is implemented by
// ordering on Enqueued instead; ties break by insertion order via seq.
type taskQueue struct {
	items []*Task
	seqs  []uint64
	seq   uint64
	fifo  bool
	// cand is claim's scratch: the queue indices of the head's partners.
	cand []int
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

// claim pops the queue's head and, when its code blocks leave lanes free
// in one lockstep span of phy.MaxJointBlocks, the queued tasks that share
// that span: the tasks with the head's span key, in queue order (deadline
// order under EDF), each taken if its code blocks still fit whole in the
// lanes left. It appends the head and its partners to dst.
func (q *taskQueue) claim(dst []*Task) []*Task {
	head := q.pop()
	dst = append(dst, head)
	lanes := phy.MaxJointBlocks - head.blocks
	if head.span.k == 0 || lanes <= 0 {
		return dst
	}
	// The candidates, in queue order: an insertion sort, since a queue is
	// a few dozen tasks and sort.Slice would allocate.
	q.cand = q.cand[:0]
	for i, t := range q.items {
		if t.span != head.span || t.blocks > lanes {
			continue
		}
		j := len(q.cand)
		q.cand = append(q.cand, i)
		for ; j > 0 && q.Less(i, q.cand[j-1]); j-- {
			q.cand[j] = q.cand[j-1]
		}
		q.cand[j] = i
	}
	taken := 0
	for _, i := range q.cand {
		if t := q.items[i]; t.blocks <= lanes {
			lanes -= t.blocks
			dst = append(dst, t)
			// Marking by nil keeps the indices valid until the one
			// compaction pass below.
			q.items[i] = nil
			taken++
		}
	}
	if taken == 0 {
		return dst
	}
	// Drop the partners and restore the heap.
	kept := 0
	for i, t := range q.items {
		if t != nil {
			q.items[kept], q.seqs[kept] = t, q.seqs[i]
			kept++
		}
	}
	clear(q.items[kept:])
	q.items, q.seqs = q.items[:kept], q.seqs[:kept]
	heap.Init(q)
	return dst
}
