package node

import (
	"testing"

	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
)

// send puts fresh allocations on the air at tti through inject, as the
// cell runtime does before ingest, so their verdicts are the ones the loop
// awaits.
func send(t *testing.T, loop *harqLoop, tti frame.TTI, allocs ...frame.Allocation) {
	t.Helper()
	work := frame.SubframeWork{Cell: 0, TTI: tti, Allocations: allocs}
	loop.inject(&work)
	if len(work.Allocations) != len(allocs) {
		t.Fatalf("TTI %d: %d of %d fresh allocations sent", tti, len(work.Allocations), len(allocs))
	}
}

func TestHARQInjectRespectsGrid(t *testing.T) {
	// The retransmission injector must always yield valid, non-overlapping
	// work even when fresh traffic occupies the same PRBs.
	loop := newHARQLoop()
	alloc := frame.Allocation{RNTI: 7, FirstPRB: 1, NumPRB: 3, MCS: 9, HARQProcess: 2, SNRdB: 10}
	send(t, loop, 10, alloc)
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
	// The two grants overlap because they came in different TTIs.
	send(t, loop, 0, a1)
	send(t, loop, 1, a2)
	loop.onTaskDone(&dataplane.Task{TTI: 0, Alloc: a1, Err: phy.ErrCRC}, make([]byte, 4))
	loop.onTaskDone(&dataplane.Task{TTI: 1, Alloc: a2, Err: phy.ErrCRC}, make([]byte, 4))

	work := frame.SubframeWork{Cell: 0, TTI: 9}
	overrides := loop.inject(&work)
	if len(overrides) != 1 {
		t.Fatalf("conflicting retransmissions both injected: %d", len(overrides))
	}
	if err := work.Validate(phy.BW1_4MHz); err != nil {
		t.Fatal(err)
	}
	// The deferred one goes out next subframe.
	work2 := frame.SubframeWork{Cell: 0, TTI: 10}
	if got := loop.inject(&work2); len(got) != 1 {
		t.Fatalf("deferred retransmission not injected next TTI: %d", len(got))
	}
}

func TestHARQExhaustion(t *testing.T) {
	loop := newHARQLoop()
	alloc := frame.Allocation{RNTI: 3, FirstPRB: 0, NumPRB: 2, MCS: 9, HARQProcess: 1, SNRdB: 0}
	send(t, loop, 0, alloc)
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
	send(t, loop, 0, alloc)
	loop.onTaskDone(&dataplane.Task{TTI: 0, Alloc: alloc, Err: dataplane.ErrAbandoned}, nil)
	if loop.snapshot().FirstTxFailures != 0 {
		t.Fatal("abandoned task counted as CRC failure")
	}
	// The process is free again: fresh data goes out on it, and nothing
	// is retransmitted.
	work := frame.SubframeWork{Cell: 0, TTI: 8, Allocations: []frame.Allocation{alloc}}
	if got := loop.inject(&work); len(got) != 0 {
		t.Fatal("abandoned task scheduled a retransmission")
	}
	if len(work.Allocations) != 1 {
		t.Fatal("abandoned first transmission still holds its process")
	}
}

// toLastAttempt sends alloc at TTI 0 and fails it and its next two
// retransmissions on CRC, then injects the last attempt and returns its
// allocation and subframe.
func toLastAttempt(t *testing.T, loop *harqLoop, alloc frame.Allocation) (frame.Allocation, frame.SubframeWork) {
	t.Helper()
	send(t, loop, 0, alloc)
	loop.onTaskDone(&dataplane.Task{TTI: 0, Alloc: alloc, Err: phy.ErrCRC}, make([]byte, 4))
	for tti := frame.TTI(8); ; tti += 8 {
		work := frame.SubframeWork{Cell: 0, TTI: tti}
		if got := loop.inject(&work); len(got) != 1 {
			t.Fatalf("TTI %d: retransmission missing", tti)
		}
		retx := work.Allocations[len(work.Allocations)-1]
		if tti == 24 {
			return retx, work
		}
		loop.onTaskDone(&dataplane.Task{TTI: tti, Alloc: retx, Err: phy.ErrCRC}, make([]byte, 4))
	}
}

// TestHARQLastAttemptWithoutVerdictExpires gives a process's last
// transmission no CRC verdict — abandoned, or never decoded because its
// subframe failed after inject — and checks the TB is exhausted at once, so
// fresh data flows on the process in the next subframe, and that a late
// verdict on the expired retransmission is ignored rather than taken for
// the fresh transmission's.
func TestHARQLastAttemptWithoutVerdictExpires(t *testing.T) {
	for _, verdict := range []error{dataplane.ErrAbandoned, nil} {
		loop := newHARQLoop()
		alloc := frame.Allocation{RNTI: 5, FirstPRB: 0, NumPRB: 2, MCS: 9, HARQProcess: 3, SNRdB: 0}
		last, lastWork := toLastAttempt(t, loop, alloc)
		if verdict != nil {
			loop.onTaskDone(&dataplane.Task{TTI: lastWork.TTI, Alloc: last, Err: verdict}, nil)
		} else {
			loop.release(lastWork)
		}
		if st := loop.snapshot(); st.Exhausted != 1 || st.FirstTxFailures != 1 || st.Retransmissions != 3 {
			t.Fatalf("verdict %v: stats %+v", verdict, st)
		}
		fresh := alloc
		fresh.FirstPRB = 4
		tti := lastWork.TTI + 1
		work := frame.SubframeWork{Cell: 0, TTI: tti, Allocations: []frame.Allocation{fresh}}
		if got := loop.inject(&work); len(got) != 0 {
			t.Fatalf("verdict %v: an exhausted process retransmitted", verdict)
		}
		if len(work.Allocations) != 1 {
			t.Fatalf("verdict %v: the exhausted process still blocks fresh data", verdict)
		}
		// The expired attempt's verdict arrives after all.
		loop.onTaskDone(&dataplane.Task{TTI: lastWork.TTI, Alloc: last}, nil)
		p := loop.procs[harqKey{fresh.RNTI, fresh.HARQProcess}]
		if st := loop.snapshot(); st.Recovered != 0 || st.Exhausted != 1 || p == nil || !p.sent || p.sentTTI != tti {
			t.Fatalf("verdict %v: the expired attempt's verdict was counted: stats %+v, process %+v", verdict, st, p)
		}
	}
}

// TestHARQLateVerdictCounts holds every verdict back far longer than a
// round trip, as a pool lagging the subframes does, and checks the process
// waits for each: no fresh data and no further retransmission goes out on
// it meanwhile, and the late verdicts are counted as what they are.
func TestHARQLateVerdictCounts(t *testing.T) {
	const lag = 100
	loop := newHARQLoop()
	alloc := frame.Allocation{RNTI: 6, FirstPRB: 0, NumPRB: 2, MCS: 9, HARQProcess: 2, SNRdB: 0}
	// idle serves lag subframes that offer fresh data on the process and
	// checks none of it, and no retransmission, goes out.
	idle := func(from frame.TTI) {
		t.Helper()
		for tti := from; tti < from+lag; tti++ {
			work := frame.SubframeWork{Cell: 0, TTI: tti, Allocations: []frame.Allocation{alloc}}
			if got := loop.inject(&work); len(got) != 0 || len(work.Allocations) != 0 {
				t.Fatalf("TTI %d: the process sent while awaiting a verdict", tti)
			}
		}
	}
	send(t, loop, 0, alloc)
	idle(1)
	loop.onTaskDone(&dataplane.Task{TTI: 0, Alloc: alloc, Err: phy.ErrCRC}, make([]byte, 4))
	tti := frame.TTI(1 + lag)
	for attempt := 2; attempt <= maxHARQAttempts; attempt++ {
		work := frame.SubframeWork{Cell: 0, TTI: tti}
		if got := loop.inject(&work); len(got) != 1 {
			t.Fatalf("attempt %d: retransmission missing", attempt)
		}
		retx := work.Allocations[len(work.Allocations)-1]
		idle(tti + 1)
		var err error
		if attempt < maxHARQAttempts {
			err = phy.ErrCRC
		}
		loop.onTaskDone(&dataplane.Task{TTI: tti, Alloc: retx, Err: err}, make([]byte, 4))
		tti += 1 + lag
	}
	if st := loop.snapshot(); st != (HARQStats{FirstTxFailures: 1, Retransmissions: 3, Recovered: 1}) {
		t.Fatalf("stats %+v", st)
	}
	if len(loop.procs) != 0 {
		t.Fatalf("%d processes still busy", len(loop.procs))
	}
}
