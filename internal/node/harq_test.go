package node

import (
	"testing"

	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
)

func TestHARQInjectRespectsGrid(t *testing.T) {
	// The retransmission injector must always yield valid, non-overlapping
	// work even when fresh traffic occupies the same PRBs.
	loop := newHARQLoop()
	alloc := frame.Allocation{RNTI: 7, FirstPRB: 1, NumPRB: 3, MCS: 9, HARQProcess: 2, SNRdB: 10}
	task := &dataplane.Task{Cell: 0, TTI: 10, Alloc: alloc, Err: phy.ErrCRC}
	loop.onTaskDone(task, make([]byte, 8))

	work := frame.SubframeWork{
		Cell: 0, TTI: 18,
		Allocations: []frame.Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 3, MCS: 5, SNRdB: 20}, // overlaps
			{RNTI: 2, FirstPRB: 4, NumPRB: 2, MCS: 5, SNRdB: 20}, // clear
		},
	}
	overrides := loop.inject(&work)
	if len(overrides) != 1 {
		t.Fatalf("expected one override, got %d", len(overrides))
	}
	if err := work.Validate(phy.BW1_4MHz); err != nil {
		t.Fatalf("injected work invalid: %v", err)
	}
	found := false
	for i, a := range work.Allocations {
		if a.RNTI == 7 {
			found = true
			if a.RV != 2 {
				t.Fatalf("first retransmission must use RV 2, got %d", a.RV)
			}
			if _, ok := overrides[i]; !ok {
				t.Fatal("override index does not match retransmission")
			}
		}
		if a.RNTI == 1 {
			t.Fatal("overlapping fresh allocation survived")
		}
	}
	if !found {
		t.Fatal("retransmission not injected")
	}
}

func TestHARQInjectDefersConflicts(t *testing.T) {
	loop := newHARQLoop()
	a1 := frame.Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 4, MCS: 9, HARQProcess: 0, SNRdB: 10}
	a2 := frame.Allocation{RNTI: 2, FirstPRB: 2, NumPRB: 4, MCS: 9, HARQProcess: 0, SNRdB: 10}
	loop.onTaskDone(&dataplane.Task{TTI: 0, Alloc: a1, Err: phy.ErrCRC}, make([]byte, 4))
	loop.onTaskDone(&dataplane.Task{TTI: 0, Alloc: a2, Err: phy.ErrCRC}, make([]byte, 4))

	work := frame.SubframeWork{Cell: 0, TTI: 8}
	overrides := loop.inject(&work)
	if len(overrides) != 1 {
		t.Fatalf("conflicting retransmissions both injected: %d", len(overrides))
	}
	if err := work.Validate(phy.BW1_4MHz); err != nil {
		t.Fatal(err)
	}
	// The deferred one goes out next subframe.
	work2 := frame.SubframeWork{Cell: 0, TTI: 9}
	if got := loop.inject(&work2); len(got) != 1 {
		t.Fatalf("deferred retransmission not injected next TTI: %d", len(got))
	}
}

func TestHARQExhaustion(t *testing.T) {
	loop := newHARQLoop()
	alloc := frame.Allocation{RNTI: 3, FirstPRB: 0, NumPRB: 2, MCS: 9, HARQProcess: 1, SNRdB: 0}
	loop.onTaskDone(&dataplane.Task{TTI: 0, Alloc: alloc, Err: phy.ErrCRC}, make([]byte, 4))
	tti := frame.TTI(8)
	for round := 0; round < 3; round++ {
		work := frame.SubframeWork{Cell: 0, TTI: tti}
		overrides := loop.inject(&work)
		if len(overrides) != 1 {
			t.Fatalf("round %d: retransmission missing", round)
		}
		retx := work.Allocations[len(work.Allocations)-1]
		loop.onTaskDone(&dataplane.Task{TTI: tti, Alloc: retx, Err: phy.ErrCRC}, make([]byte, 4))
		tti += 8
	}
	// All four transmissions used; the process must be dropped.
	work := frame.SubframeWork{Cell: 0, TTI: tti}
	if got := loop.inject(&work); len(got) != 0 {
		t.Fatal("exhausted process still retransmitting")
	}
	st := loop.snapshot()
	if st.Exhausted != 1 || st.Retransmissions != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHARQAbandonedTasksDoNotAdvance(t *testing.T) {
	loop := newHARQLoop()
	alloc := frame.Allocation{RNTI: 4, FirstPRB: 0, NumPRB: 2, MCS: 9, SNRdB: 10}
	loop.onTaskDone(&dataplane.Task{TTI: 0, Alloc: alloc, Err: dataplane.ErrAbandoned}, nil)
	if loop.snapshot().FirstTxFailures != 0 {
		t.Fatal("abandoned task counted as CRC failure")
	}
	work := frame.SubframeWork{Cell: 0, TTI: 8}
	if got := loop.inject(&work); len(got) != 0 {
		t.Fatal("abandoned task scheduled a retransmission")
	}
}

// TestHARQLastAttemptWithoutVerdictExpires drives a process to its last
// transmission and then gives that transmission no CRC verdict — abandoned
// late, or never decoded because its subframe failed after inject — and
// checks the process is exhausted a round trip past its due TTI, so fresh
// data flows on it again, and that a late verdict on the expired
// retransmission is ignored rather than taken for a failed first
// transmission.
func TestHARQLastAttemptWithoutVerdictExpires(t *testing.T) {
	for _, verdict := range []error{dataplane.ErrAbandoned, nil} {
		loop := newHARQLoop()
		alloc := frame.Allocation{RNTI: 5, FirstPRB: 0, NumPRB: 2, MCS: 9, HARQProcess: 3, SNRdB: 0}
		loop.onTaskDone(&dataplane.Task{TTI: 0, Alloc: alloc, Err: phy.ErrCRC}, make([]byte, 4))
		tti := frame.TTI(8)
		var last frame.Allocation
		for round := 0; round < 3; round++ {
			work := frame.SubframeWork{Cell: 0, TTI: tti}
			if got := loop.inject(&work); len(got) != 1 {
				t.Fatalf("round %d: retransmission missing", round)
			}
			last = work.Allocations[len(work.Allocations)-1]
			if round < 2 {
				loop.onTaskDone(&dataplane.Task{TTI: tti, Alloc: last, Err: phy.ErrCRC}, make([]byte, 4))
			}
			tti += 8
		}
		if verdict != nil {
			loop.onTaskDone(&dataplane.Task{TTI: tti - 8, Alloc: last, Err: verdict}, nil)
		}
		fresh := alloc
		fresh.FirstPRB = 4
		for ; tti <= 100; tti++ {
			work := frame.SubframeWork{Cell: 0, TTI: tti, Allocations: []frame.Allocation{fresh}}
			if got := loop.inject(&work); len(got) != 0 {
				t.Fatalf("TTI %d: an exhausted process retransmitted", tti)
			}
			if len(work.Allocations) == 1 {
				break
			}
		}
		if tti > 40 {
			t.Fatalf("verdict %v: the process still blocks fresh data at TTI %d", verdict, tti)
		}
		if st := loop.snapshot(); st.Exhausted != 1 || st.FirstTxFailures != 1 || st.Retransmissions != 3 {
			t.Fatalf("verdict %v: stats %+v", verdict, st)
		}
		// The expired attempt's CRC verdict arrives after all.
		loop.onTaskDone(&dataplane.Task{TTI: tti, Alloc: last, Err: phy.ErrCRC}, make([]byte, 4))
		if st := loop.snapshot(); st.FirstTxFailures != 1 || st.Exhausted != 1 || len(loop.pending) != 0 {
			t.Fatalf("verdict %v: a late retransmission verdict was queued: stats %+v, %d pending", verdict, st, len(loop.pending))
		}
	}
}
