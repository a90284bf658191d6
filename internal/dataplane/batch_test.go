package dataplane

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"pran/internal/cluster"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// TestBatchTelemetryCountsLockstepSpans pins the lane-fill telemetry on the
// lockstep the decoder runs: one batch-width observation per span, valued at
// the code blocks it decoded together, counted full at the profile's width
// and ragged below it. A 14-block transport block (MCS 28, 100 PRB) and a
// single-block one (MCS 10, 4 PRB) decode on each profile.
func TestBatchTelemetryCountsLockstepSpans(t *testing.T) {
	enc, err := phy.NewTransportProcessor(phy.MaxPRB, phy.DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := []frame.Allocation{{RNTI: 1, NumPRB: 100, MCS: 28}, {RNTI: 2, NumPRB: 4, MCS: 10}}
	for _, tc := range []struct {
		name         string
		prof         phy.DecodeProfile
		spans        uint64
		full, ragged uint64
	}{
		{"default", phy.DecodeProfile{}, 3, 1, 2},          // 8+6, then 1
		{"width 4", phy.DecodeProfile{Batch: 4}, 5, 3, 2},  // 4+4+4+2, then 1
		{"scalar", phy.DecodeProfile{Batch: 1}, 15, 15, 0}, // every block alone, at the profile's width
	} {
		reg := telemetry.New(2)
		pool := testPool(t, Config{Workers: 1, DeadlineScale: 1e6, Decode: tc.prof, Telemetry: reg})
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
				t.Fatalf("%s: allocation %d: %v", tc.name, i, tk.Err)
			}
		}
		snap := reg.Snapshot()
		hist, ok := snap.Histogram(MetricBatchWidth)
		if !ok || hist.State.Count != tc.spans || hist.State.Sum != 15 {
			t.Errorf("%s: %d width observations summing to %v, want %d summing to the 15 code blocks",
				tc.name, hist.State.Count, hist.State.Sum, tc.spans)
		}
		if full, ragged := snap.Counter(MetricBatchFlushFull), snap.Counter(MetricBatchFlushRagged); full != tc.full || ragged != tc.ragged {
			t.Errorf("%s: %d full and %d ragged spans, want %d and %d", tc.name, full, ragged, tc.full, tc.ragged)
		}
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

// TestInvalidProfileRejectedEverywhere pins that the decode profile has one
// validator: every profile phy.DecodeProfile.Validate rejects is rejected,
// with phy.ErrBadParameter, by each thing built from a profile — the
// transport processor, the pool and the cost model — and every profile it
// accepts is accepted by all three.
func TestInvalidProfileRejectedEverywhere(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prof  phy.DecodeProfile
		valid bool
	}{
		{"zero value", phy.DecodeProfile{}, true},
		{"every oracle", phy.DecodeProfile{Kernel: phy.KernelFloat32, FrontEnd: phy.FrontEndStaged, Batch: 1, NoVectorFrontEnd: true}, true},
		{"width 8", phy.DecodeProfile{Batch: 8}, true},
		{"negative width", phy.DecodeProfile{Batch: -1}, false},
		{"width above 8", phy.DecodeProfile{Batch: 9}, false},
		{"lockstep float32", phy.DecodeProfile{Kernel: phy.KernelFloat32, Batch: 2}, false},
		{"unknown kernel", phy.DecodeProfile{Kernel: phy.DecodeKernel(9)}, false},
		{"unknown front-end", phy.DecodeProfile{FrontEnd: phy.FrontEnd(7)}, false},
	} {
		_, procErr := phy.NewTransportProcessor(1, tc.prof)
		pool, poolErr := NewPool(Config{Workers: 1, DeadlineScale: 1, Decode: tc.prof})
		if poolErr == nil {
			pool.Close()
		}
		for who, err := range map[string]error{
			"DecodeProfile.Validate": tc.prof.Validate(),
			"NewTransportProcessor":  procErr,
			"NewPool":                poolErr,
			"CostModel.Validate":     cluster.DefaultCostModel().WithProfile(tc.prof).Validate(),
		} {
			if tc.valid && err != nil {
				t.Errorf("%s: %s rejected a valid profile: %v", tc.name, who, err)
			}
			if !tc.valid && !errors.Is(err, phy.ErrBadParameter) {
				t.Errorf("%s: %s returned %v, want phy.ErrBadParameter", tc.name, who, err)
			}
		}
	}
}
