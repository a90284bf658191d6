package dataplane

import (
	"errors"
	"sync"
	"time"

	"testing"

	"pran/internal/cluster"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

func TestEndToEndCrossTaskBatching(t *testing.T) {
	// Five same-shape allocations plus one odd one out, with the single
	// worker stalled on its first task so the rest pile up in the queue:
	// the worker's next claim must batch the queued same-shape tasks into
	// one joint decode. endToEnd verifies every payload against the
	// transmitted ground truth, and the telemetry must show a full flush.
	// The odd one is submitted first: equal deadlines pop in submission
	// order, so it is the task the worker stalls on however late it wakes,
	// and all five same-shape tasks are queued behind it (submitted last, a
	// worker that woke mid-ingest claimed two or three of the five at once
	// and left a ragged remainder — one run in five under -race).
	reg := telemetry.New(4)
	var stall sync.Once
	pool := testPool(t, Config{
		Workers: 1, Decode: phy.DecodeProfile{Workers: 2},
		BatchTasks: 4,
		Policy:     EDF, DeadlineScale: 1000, Telemetry: reg,
		FaultHook: func(worker int) error {
			stall.Do(func() { time.Sleep(20 * time.Millisecond) })
			return nil
		},
	})
	same := frame.Allocation{NumPRB: 1, MCS: 14, SNRdB: phy.MCS(14).OperatingSNR() + 4}
	work := frame.SubframeWork{Cell: 1, TTI: 42}
	work.Allocations = append(work.Allocations, frame.Allocation{
		RNTI: 200, FirstPRB: 5, NumPRB: 1, MCS: 6, SNRdB: phy.MCS(6).OperatingSNR() + 4,
	})
	for i := 0; i < 5; i++ {
		a := same
		a.RNTI = frame.RNTI(100 + i)
		a.FirstPRB = i
		work.Allocations = append(work.Allocations, a)
	}
	done := endToEnd(t, pool, work)
	if len(done) != 6 {
		t.Fatalf("%d tasks done", len(done))
	}
	for _, tk := range done {
		if tk.Err != nil {
			t.Fatalf("rnti %d: %v", tk.Alloc.RNTI, tk.Err)
		}
		if tk.TurboIterations < 1 {
			t.Fatalf("rnti %d: iterations not recorded", tk.Alloc.RNTI)
		}
	}
	snap := reg.Snapshot()
	hist, ok := snap.Histogram(MetricBatchWidth)
	if !ok || hist.State.Count == 0 {
		t.Fatal("batch width histogram not recorded")
	}
	full := snap.Counter(MetricBatchFlushFull)
	ragged := snap.Counter(MetricBatchFlushRagged)
	if full < 1 {
		t.Fatalf("expected at least one full flush (full=%d ragged=%d)", full, ragged)
	}
	if full+ragged != hist.State.Count {
		t.Fatalf("flush counters %d+%d disagree with %d width observations", full, ragged, hist.State.Count)
	}
}

func TestCrossTaskBatchingManySubframes(t *testing.T) {
	// Race-detector target for the batched composition: several workers
	// with joint decoders and lockstep kernels chewing a stream of
	// subframes whose allocations mostly share one shape.
	pool := testPool(t, Config{
		Workers: 2, Decode: phy.DecodeProfile{Workers: 2}, BatchTasks: 3,
		Policy: EDF, DeadlineScale: 1000,
	})
	subframes := 5
	if testing.Short() {
		subframes = 2
	}
	for s := 0; s < subframes; s++ {
		work := frame.SubframeWork{Cell: 1, TTI: frame.TTI(s)}
		for i := 0; i < 4; i++ {
			work.Allocations = append(work.Allocations, frame.Allocation{
				RNTI: frame.RNTI(100 + i), FirstPRB: i, NumPRB: 1, MCS: 12,
				SNRdB: phy.MCS(12).OperatingSNR() + 4,
			})
		}
		done := endToEnd(t, pool, work)
		for _, tk := range done {
			if tk.Err != nil {
				t.Fatalf("subframe %d rnti %d: %v", s, tk.Alloc.RNTI, tk.Err)
			}
		}
	}
}

func TestTakeMatchGroupsSameShape(t *testing.T) {
	q := taskQueue{}
	now := time.Now()
	mk := func(rnti int, mcs phy.MCS, nprb int, dl time.Duration) *Task {
		return &Task{Deadline: now.Add(dl), Alloc: frame.Allocation{RNTI: frame.RNTI(rnti), MCS: mcs, NumPRB: nprb}}
	}
	a := mk(1, 14, 4, 1*time.Millisecond)
	b := mk(2, 6, 4, 2*time.Millisecond)  // different MCS
	c := mk(3, 14, 2, 3*time.Millisecond) // different width
	d := mk(4, 14, 4, 4*time.Millisecond) // match, queued before e
	e := mk(5, 14, 4, 5*time.Millisecond) // match
	dl := mk(6, 14, 4, 6*time.Millisecond)
	dl.runInstead = func(w *worker, t *Task) {} // custom work never joins
	for _, tk := range []*Task{a, b, c, d, e, dl} {
		q.push(tk)
	}
	lead := q.pop()
	if lead != a {
		t.Fatalf("EDF pop = rnti %d, want 1", lead.Alloc.RNTI)
	}
	if m := q.takeMatch(lead); m != d {
		t.Fatalf("first match rnti %v, want 4", m.Alloc.RNTI)
	}
	if m := q.takeMatch(lead); m != e {
		t.Fatalf("second match rnti %v, want 5", m.Alloc.RNTI)
	}
	if m := q.takeMatch(lead); m != nil {
		t.Fatalf("unexpected third match rnti %v", m.Alloc.RNTI)
	}
	if q.Len() != 3 {
		t.Fatalf("queue len %d, want 3", q.Len())
	}
	// The heap must still pop in deadline order after the removals.
	if q.pop() != b || q.pop() != c || q.pop() != dl {
		t.Fatal("heap order broken after takeMatch removals")
	}
}

func TestConfigBatchValidation(t *testing.T) {
	base := Config{Workers: 1, DeadlineScale: 1}
	cfg := base
	cfg.BatchTasks = -1
	if err := cfg.Validate(); !errors.Is(err, phy.ErrBadParameter) {
		t.Fatal("negative BatchTasks accepted")
	}
	cfg = base
	cfg.BatchTasks = 2
	cfg.Decode.FrontEnd = phy.FrontEndStaged
	if err := cfg.Validate(); !errors.Is(err, phy.ErrBadParameter) {
		t.Fatal("staged front-end with cross-task batching accepted")
	}
	cfg = base
	cfg.Decode.Batch = 8
	cfg.BatchTasks = 4
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid batched config rejected: %v", err)
	}
}

// TestInvalidProfileRejectedEverywhere pins that the decode profile has one
// validator: every profile phy.DecodeProfile.Validate rejects is rejected,
// with phy.ErrBadParameter, by each thing built from a profile — the decoder
// set, the pool and the cost model — and every profile it accepts is
// accepted by all three.
func TestInvalidProfileRejectedEverywhere(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prof  phy.DecodeProfile
		valid bool
	}{
		{"zero value", phy.DecodeProfile{}, true},
		{"every oracle", phy.DecodeProfile{Workers: 2, Kernel: phy.KernelFloat32, FrontEnd: phy.FrontEndStaged, Batch: 1, NoVectorFrontEnd: true}, true},
		{"width 8", phy.DecodeProfile{Batch: 8}, true},
		{"negative workers", phy.DecodeProfile{Workers: -1}, false},
		{"negative width", phy.DecodeProfile{Batch: -1}, false},
		{"width above 8", phy.DecodeProfile{Batch: 9}, false},
		{"lockstep float32", phy.DecodeProfile{Kernel: phy.KernelFloat32, Batch: 2}, false},
		{"unknown kernel", phy.DecodeProfile{Kernel: phy.DecodeKernel(9)}, false},
		{"unknown front-end", phy.DecodeProfile{FrontEnd: phy.FrontEnd(7)}, false},
	} {
		_, setErr := phy.NewDecoderSet(tc.prof)
		pool, poolErr := NewPool(Config{Workers: 1, DeadlineScale: 1, Decode: tc.prof})
		if poolErr == nil {
			pool.Close()
		}
		for who, err := range map[string]error{
			"DecodeProfile.Validate": tc.prof.Validate(),
			"NewDecoderSet":          setErr,
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
