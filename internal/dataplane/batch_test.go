package dataplane

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// TestBatchTelemetryCountsLockstepSpans pins the lane-fill telemetry on the
// lockstep the decoder runs: one batch-width observation per span, valued at
// the code blocks it decoded together, counted full at width 8 and
// ragged below it. A 14-block transport block (MCS 28, 100 PRB) decodes as
// spans of 8 and 6, a single-block one (MCS 10, 4 PRB) as one lone block.
func TestBatchTelemetryCountsLockstepSpans(t *testing.T) {
	enc, err := phy.NewTransportProcessor(phy.MaxPRB)
	if err != nil {
		t.Fatal(err)
	}
	allocs := []frame.Allocation{{RNTI: 1, NumPRB: 100, MCS: 28}, {RNTI: 2, NumPRB: 4, MCS: 10}}
	reg := telemetry.New(2)
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1e6, Telemetry: reg})
	tasks := make([]*Task, len(allocs))
	for i, a := range allocs {
		tbs, err := a.MCS.TransportBlockSize(a.NumPRB)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, tbs)
		for j := range payload {
			payload[j] = byte(j*j>>3) & 1
		}
		syms, err := enc.Encode(a.MCS, a.NumPRB, payload, uint16(a.RNTI), 42, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		tasks[i] = &Task{
			PCI: 42, TTI: 1, Alloc: a, REs: append([]complex128(nil), syms...), N0: 1e-3,
			Enqueued: now, Deadline: now.Add(time.Hour),
		}
		if err := pool.Submit(tasks[i]); err != nil {
			t.Fatal(err)
		}
	}
	pool.Drain()
	for i, tk := range tasks {
		if tk.Err != nil {
			t.Fatalf("allocation %d: %v", i, tk.Err)
		}
	}
	snap := reg.Snapshot()
	hist, ok := snap.Histogram(MetricBatchWidth)
	if !ok || hist.State.Count != 3 || hist.State.Sum != 15 {
		t.Errorf("%d width observations summing to %v, want 3 summing to the 15 code blocks",
			hist.State.Count, hist.State.Sum)
	}
	if full, ragged := snap.Counter(MetricBatchFlushFull), snap.Counter(MetricBatchFlushRagged); full != 1 || ragged != 2 {
		t.Errorf("%d full and %d ragged spans, want 1 and 2", full, ragged)
	}
}

// moduleGoroutines counts the live goroutines this module's packages
// started, read off a dump of every goroutine's stack.
func moduleGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "\ncreated by pran/internal/")
}

// TestPoolGoroutinesEqualWorkers pins the pool's goroutine budget: once its
// workers have decoded, a pool runs exactly Config.Workers goroutines —
// every code block of a task decodes on the worker that claimed it — plus
// the headroom controller when the degradation ladder is enabled.
func TestPoolGoroutinesEqualWorkers(t *testing.T) {
	const workers = 3
	work := frame.SubframeWork{Cell: 1, TTI: 9}
	for i := 0; i < 3; i++ {
		work.Allocations = append(work.Allocations, frame.Allocation{
			RNTI: frame.RNTI(100 + i), FirstPRB: 2 * i, NumPRB: 2, MCS: 16, SNRdB: phy.MCS(16).OperatingSNR() + 4,
		})
	}
	for _, degrade := range []bool{false, true} {
		// Pools that earlier tests closed may still be unwinding.
		for deadline := time.Now().Add(5 * time.Second); moduleGoroutines() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines of earlier tests still running", moduleGoroutines())
			}
		}
		pool, err := NewPool(Config{Workers: workers, DeadlineScale: 1000, Degrade: DegradeConfig{Enable: degrade}})
		if err != nil {
			t.Fatal(err)
		}
		endToEnd(t, pool, work)
		want := workers
		if degrade {
			want++
		}
		got := moduleGoroutines()
		pool.Close()
		if got != want {
			t.Fatalf("degrade=%v: pool runs %d goroutines, want %d", degrade, got, want)
		}
	}
}
