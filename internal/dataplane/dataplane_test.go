package dataplane

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"pran/internal/frame"
	"pran/internal/phy"
)

// testCellConfig is a small, fast cell used throughout the tests.
func testCellConfig() frame.CellConfig {
	return frame.CellConfig{ID: 1, PCI: 42, Bandwidth: phy.BW1_4MHz, Antennas: 1}
}

func testPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestQueueEDFOrder(t *testing.T) {
	q := taskQueue{}
	now := time.Now()
	a := &Task{Deadline: now.Add(3 * time.Millisecond)}
	b := &Task{Deadline: now.Add(1 * time.Millisecond)}
	c := &Task{Deadline: now.Add(2 * time.Millisecond)}
	q.push(a)
	q.push(b)
	q.push(c)
	if q.pop() != b || q.pop() != c || q.pop() != a {
		t.Fatal("EDF order wrong")
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	q := taskQueue{fifo: true}
	now := time.Now()
	// Deadlines inverted vs arrival: FIFO must ignore them.
	a := &Task{Enqueued: now, Deadline: now.Add(9 * time.Millisecond)}
	b := &Task{Enqueued: now.Add(time.Microsecond), Deadline: now.Add(1 * time.Millisecond)}
	q.push(a)
	q.push(b)
	if q.pop() != a || q.pop() != b {
		t.Fatal("FIFO order wrong")
	}
}

func TestQueueTieBreakIsStable(t *testing.T) {
	q := taskQueue{}
	now := time.Now()
	var tasks []*Task
	for i := 0; i < 20; i++ {
		tk := &Task{Deadline: now, Alloc: frame.Allocation{RNTI: frame.RNTI(i)}}
		tasks = append(tasks, tk)
		q.push(tk)
	}
	for i := 0; i < 20; i++ {
		if q.pop() != tasks[i] {
			t.Fatal("equal-deadline tasks reordered")
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Workers: 0, DeadlineScale: 1}).Validate(); err == nil {
		t.Fatal("0 workers accepted")
	}
	if err := (Config{Workers: 1, DeadlineScale: 0}).Validate(); err == nil {
		t.Fatal("0 scale accepted")
	}
	c := Config{Workers: 1, DeadlineScale: 2}
	if c.Budget() != 4*time.Millisecond {
		t.Fatalf("budget %v", c.Budget())
	}
	if EDF.String() != "edf" || FIFO.String() != "fifo" {
		t.Fatal("policy names")
	}
}

// endToEnd pushes one subframe through RRH → CellProcessor → pool and
// returns the tasks in completion order.
func endToEnd(t *testing.T, pool *Pool, work frame.SubframeWork) []*Task {
	t.Helper()
	cfg := testCellConfig()
	rrh, err := NewRRHEmulator(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCellProcessor(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := rrh.RandomPayloads(work)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rrh.Emit(work, payloads)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var done []*Task
	var wg sync.WaitGroup
	wg.Add(len(work.Allocations))
	err = cp.IngestSubframe(samples, work, func(tk *Task) {
		// Payload aliases worker-owned memory; snapshot it before the worker
		// reuses the processor for a later task.
		tk.Payload = append([]byte(nil), tk.Payload...)
		mu.Lock()
		done = append(done, tk)
		mu.Unlock()
		wg.Done()
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Verify payloads against ground truth by RNTI.
	for _, tk := range done {
		if tk.Err != nil {
			continue
		}
		for i, a := range work.Allocations {
			if a.RNTI == tk.Alloc.RNTI && a.FirstPRB == tk.Alloc.FirstPRB {
				if !bytes.Equal(tk.Payload, payloads[i]) {
					t.Fatalf("rnti %d: decoded payload differs from transmitted", a.RNTI)
				}
			}
		}
	}
	return done
}

func TestEndToEndSubframeDecode(t *testing.T) {
	pool := testPool(t, Config{Workers: 2, Policy: EDF, DeadlineScale: 1000})
	work := frame.SubframeWork{
		Cell: 1, TTI: 42,
		Allocations: []frame.Allocation{
			{RNTI: 100, FirstPRB: 0, NumPRB: 3, MCS: 8, SNRdB: phy.MCS(8).OperatingSNR() + 4},
			{RNTI: 101, FirstPRB: 3, NumPRB: 3, MCS: 12, SNRdB: phy.MCS(12).OperatingSNR() + 4},
		},
	}
	done := endToEnd(t, pool, work)
	if len(done) != 2 {
		t.Fatalf("%d tasks done", len(done))
	}
	for _, tk := range done {
		if tk.Err != nil {
			t.Fatalf("rnti %d: %v", tk.Alloc.RNTI, tk.Err)
		}
		if tk.TurboIterations < 1 {
			t.Fatal("iterations not recorded")
		}
		if tk.Latency() <= 0 {
			t.Fatal("latency not recorded")
		}
	}
	st := pool.Stats()
	if st.Submitted != 2 || st.Completed != 2 || st.CRCFailures != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEndToEndLowSNRFailsCRC(t *testing.T) {
	pool := testPool(t, Config{Workers: 1, Policy: EDF, DeadlineScale: 1000})
	work := frame.SubframeWork{
		Cell: 1, TTI: 1,
		Allocations: []frame.Allocation{
			{RNTI: 100, FirstPRB: 0, NumPRB: 4, MCS: 20, SNRdB: phy.MCS(20).OperatingSNR() - 15},
		},
	}
	done := endToEnd(t, pool, work)
	if len(done) != 1 || !errors.Is(done[0].Err, phy.ErrCRC) {
		t.Fatalf("want CRC failure, got %v", done[0].Err)
	}
	if pool.Stats().CRCFailures != 1 {
		t.Fatal("CRC failure not counted")
	}
}

func TestHARQRetransmissionViaDataplane(t *testing.T) {
	// First TX below the operating point usually fails; a chase-combined
	// retransmission through the cell's HARQ manager must succeed.
	poolCfg := Config{Workers: 1, Policy: EDF, DeadlineScale: 1000}
	pool := testPool(t, poolCfg)
	cfg := testCellConfig()
	rrh, _ := NewRRHEmulator(cfg, 21)
	cp, _ := NewCellProcessor(cfg, pool)

	alloc := frame.Allocation{
		RNTI: 50, FirstPRB: 0, NumPRB: 6, MCS: 14, HARQProcess: 2,
		SNRdB: phy.MCS(14).OperatingSNR() - 2.5,
	}
	work := frame.SubframeWork{Cell: 1, TTI: 10, Allocations: []frame.Allocation{alloc}}
	payloads, _ := rrh.RandomPayloads(work)

	runOnce := func(w frame.SubframeWork) *Task {
		samples, err := rrh.Emit(w, payloads)
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan *Task, 1)
		if err := cp.IngestSubframe(samples, w, func(tk *Task) { ch <- tk }); err != nil {
			t.Fatal(err)
		}
		return <-ch
	}

	first := runOnce(work)
	// Retransmission 8 TTIs later, same HARQ process, RV 2.
	work2 := work
	work2.TTI = 18
	work2.Allocations = []frame.Allocation{alloc}
	work2.Allocations[0].RV = 2
	second := runOnce(work2)
	if second.Err != nil {
		t.Fatalf("combined retransmission failed (first err=%v): %v", first.Err, second.Err)
	}
	if !bytes.Equal(second.Payload, payloads[0]) {
		t.Fatal("combined decode returned wrong payload")
	}
	if cp.HARQ().Processes() == 0 || cp.HARQ().StateBytes() <= 0 {
		t.Fatal("HARQ state not tracked")
	}
}

func TestAbandonLate(t *testing.T) {
	// With an absurdly tight budget and AbandonLate, queued tasks must be
	// dropped as ErrAbandoned and counted as misses.
	pool := testPool(t, Config{Workers: 1, Policy: EDF, DeadlineScale: 1e-6, AbandonLate: true})
	work := frame.SubframeWork{
		Cell: 1, TTI: 3,
		Allocations: []frame.Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 3, MCS: 5, SNRdB: 30},
			{RNTI: 2, FirstPRB: 3, NumPRB: 3, MCS: 5, SNRdB: 30},
		},
	}
	done := endToEnd(t, pool, work)
	abandoned := 0
	for _, tk := range done {
		if errors.Is(tk.Err, ErrAbandoned) {
			abandoned++
		}
	}
	if abandoned == 0 {
		t.Fatal("no task abandoned under an impossible budget")
	}
	st := pool.Stats()
	if st.Abandoned != uint64(abandoned) || st.DeadlineMisses == 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.MissRate() <= 0 {
		t.Fatal("miss rate zero")
	}
}

func TestPoolCloseSemantics(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, DeadlineScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := pool.Submit(&Task{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestPoolDrain(t *testing.T) {
	pool := testPool(t, Config{Workers: 2, DeadlineScale: 1000})
	work := frame.SubframeWork{
		Cell: 1, TTI: 9,
		Allocations: []frame.Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 2, MCS: 4, SNRdB: 20},
			{RNTI: 2, FirstPRB: 2, NumPRB: 2, MCS: 4, SNRdB: 20},
			{RNTI: 3, FirstPRB: 4, NumPRB: 2, MCS: 4, SNRdB: 20},
		},
	}
	cfg := testCellConfig()
	rrh, _ := NewRRHEmulator(cfg, 3)
	cp, _ := NewCellProcessor(cfg, pool)
	payloads, _ := rrh.RandomPayloads(work)
	samples, _ := rrh.Emit(work, payloads)
	if err := cp.IngestSubframe(samples, work, nil); err != nil {
		t.Fatal(err)
	}
	pool.Drain()
	if pool.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
	if got := pool.Stats().Completed; got != 3 {
		t.Fatalf("completed %d", got)
	}
}

func TestIngestValidation(t *testing.T) {
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1})
	cp, err := NewCellProcessor(testCellConfig(), pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.IngestSubframe(make([]complex128, 7), frame.SubframeWork{}, nil); err == nil {
		t.Fatal("short sample buffer accepted")
	}
	n := cp.Config().Bandwidth.FFTSize() * phy.SymbolsPerSubframe
	bad := frame.SubframeWork{Allocations: []frame.Allocation{{RNTI: 1, FirstPRB: 0, NumPRB: 99, MCS: 5}}}
	if err := cp.IngestSubframe(make([]complex128, n), bad, nil); err == nil {
		t.Fatal("invalid work accepted")
	}
}

// TestIngestIdleSubframe: a subframe with no allocation costs no transform
// and submits nothing, and the next busy subframe decodes as it does on a
// processor that never saw the idle one.
func TestIngestIdleSubframe(t *testing.T) {
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1000})
	cfg := testCellConfig()
	rrh, err := NewRRHEmulator(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := NewCellProcessor(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCellProcessor(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	idle.EstimateChannel, fresh.EstimateChannel = true, true

	empty := frame.SubframeWork{Cell: 1, TTI: 4}
	samples, err := rrh.Emit(empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.IngestSubframe(samples, empty, nil); err != nil {
		t.Fatal(err)
	}
	if n := pool.Stats().Submitted; n != 0 || idle.FFTTime != 0 || idle.EstimateTime != 0 {
		t.Fatalf("idle subframe: %d tasks submitted, FFT %v, estimate %v", n, idle.FFTTime, idle.EstimateTime)
	}

	busy := frame.SubframeWork{Cell: 1, TTI: 5, Allocations: []frame.Allocation{
		{RNTI: 7, FirstPRB: 0, NumPRB: 3, MCS: 10, SNRdB: phy.MCS(10).OperatingSNR() + 3},
		{RNTI: 8, FirstPRB: 3, NumPRB: 3, MCS: 16, SNRdB: phy.MCS(16).OperatingSNR() + 3},
	}}
	payloads, err := rrh.RandomPayloads(busy)
	if err != nil {
		t.Fatal(err)
	}
	if samples, err = rrh.Emit(busy, payloads); err != nil {
		t.Fatal(err)
	}
	decode := func(cp *CellProcessor) map[frame.RNTI][]byte {
		out := map[frame.RNTI][]byte{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		wg.Add(len(busy.Allocations))
		if err := cp.IngestSubframe(samples, busy, func(tk *Task) {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			if tk.Err != nil {
				t.Errorf("rnti %d: %v", tk.Alloc.RNTI, tk.Err)
			}
			out[tk.Alloc.RNTI] = append([]byte(nil), tk.Payload...)
		}); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		return out
	}
	got, want := decode(idle), decode(fresh)
	for i, a := range busy.Allocations {
		if !bytes.Equal(got[a.RNTI], want[a.RNTI]) || !bytes.Equal(got[a.RNTI], payloads[i]) {
			t.Fatalf("rnti %d: payload after an idle subframe differs", a.RNTI)
		}
	}
}

func TestRRHValidation(t *testing.T) {
	rrh, err := NewRRHEmulator(testCellConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	work := frame.SubframeWork{Allocations: []frame.Allocation{{RNTI: 1, FirstPRB: 0, NumPRB: 2, MCS: 3, SNRdB: 20}}}
	if _, err := rrh.Emit(work, nil); err == nil {
		t.Fatal("payload count mismatch accepted")
	}
	if _, err := NewRRHEmulator(frame.CellConfig{Bandwidth: phy.Bandwidth(9)}, 1); err == nil {
		t.Fatal("bad cell config accepted")
	}
}

func TestHARQManagerStateTransitions(t *testing.T) {
	h := NewHARQManager()
	a := frame.Allocation{RNTI: 1, NumPRB: 4, MCS: 10, HARQProcess: 0, RV: 0, SNRdB: 10}
	sb1 := h.Prepare(a, 1)
	if sb1 == nil {
		t.Fatal("no buffer for first TX")
	}
	// Retransmission same config: same buffer.
	a.RV = 2
	if h.Prepare(a, 9) != sb1 {
		t.Fatal("retransmission got a different buffer")
	}
	// New transmission resets but reuses the buffer.
	a.RV = 0
	if h.Prepare(a, 17) != sb1 {
		t.Fatal("new TX same config should reuse buffer")
	}
	// Config change at rest: the same buffer, laid out for the new
	// configuration and zeroed.
	sb1.Unmarshal(bytes.Repeat([]byte{0x40}, sb1.MarshalledSize()))
	a.MCS, a.NumPRB = 16, 40
	want, err := phy.NewSoftBuffer(a.MCS, a.NumPRB)
	if err != nil {
		t.Fatal(err)
	}
	if h.Prepare(a, 25) != sb1 {
		t.Fatal("config change at rest should re-lay out the process's buffer")
	}
	if sb1.Blocks() != want.Blocks() || sb1.StreamLen() != want.StreamLen() ||
		!bytes.Equal(sb1.MarshalAppend(nil), want.MarshalAppend(nil)) || h.StateBytes() != want.MarshalledSize() {
		t.Fatalf("re-laid out buffer %d×%d (%d bytes), want a zeroed %d×%d", sb1.Blocks(), sb1.StreamLen(), h.StateBytes(), want.Blocks(), want.StreamLen())
	}
	// Config change while a decode still owns the buffer: a fresh one, the
	// in-flight task keeps the old.
	_, st := h.prepareOwned(a, 33)
	a.MCS = 12
	if sb2 := h.Prepare(a, 41); sb2 == nil || sb2 == sb1 {
		t.Fatal("config change under an in-flight decode must not touch its buffer")
	}
	st.busy.Store(false)
	if h.Processes() != 1 {
		t.Fatalf("processes %d", h.Processes())
	}
	h.Reset()
	if h.Processes() != 0 {
		t.Fatal("reset failed")
	}
}

// TestHARQPrepareAllocatesOnlySoftBuffers pins what HARQ state costs: soft
// buffers sized from the segmentation, and nothing else. The manager used
// to build a full TransportProcessor per (MCS, PRB) shape just to size them
// — several times the buffer itself, turbo working set included — which a
// hundred shapes would show as hundreds of megabytes here.
func TestHARQPrepareAllocatesOnlySoftBuffers(t *testing.T) {
	h := NewHARQManager()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	shapes := 0
	for mcs := phy.MCS(0); mcs <= 28 && shapes < 100; mcs += 3 {
		for nprb := 10; nprb <= 100 && shapes < 100; nprb += 10 {
			a := frame.Allocation{RNTI: frame.RNTI(shapes + 1), NumPRB: nprb, MCS: mcs}
			if h.Prepare(a, 1) == nil {
				t.Fatalf("no buffer for MCS %d / %d PRB", mcs, nprb)
			}
			shapes++
		}
	}
	runtime.ReadMemStats(&after)
	if shapes != 100 || h.Processes() != 100 {
		t.Fatalf("%d shapes prepared, %d processes tracked", shapes, h.Processes())
	}
	want := 0
	for mcs := phy.MCS(0); mcs <= 28; mcs += 3 {
		for nprb := 10; nprb <= 100; nprb += 10 {
			tbs, err := mcs.TransportBlockSize(nprb)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := phy.Segment(tbs + 24)
			if err != nil {
				t.Fatal(err)
			}
			want += seg.C * 3 * (seg.K + 4) * 4
		}
	}
	if got := h.StateBytes(); got != want {
		t.Fatalf("StateBytes %d, segmentation says %d", got, want)
	}
	// Buffers plus their stream-view slices and map entries: a tenth on top
	// of the LLRs themselves is generous.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(want)*11/10 {
		t.Fatalf("preparing 100 shapes allocated %d bytes for %d bytes of soft state", alloc, want)
	}
}

func TestHARQManagerBusyOwnership(t *testing.T) {
	h := NewHARQManager()
	a := frame.Allocation{RNTI: 5, NumPRB: 4, MCS: 10, HARQProcess: 1, RV: 0, SNRdB: 10}
	sb1, st1 := h.prepareOwned(a, 1)
	if sb1 == nil || st1 == nil {
		t.Fatal("no buffer for first TX")
	}
	// Retransmission while the first decode still owns the buffer: no
	// combining buffer rather than a racy handout.
	a.RV = 2
	if sb, st := h.prepareOwned(a, 9); sb != nil || st != nil {
		t.Fatal("busy buffer handed out for retransmission")
	}
	// A fresh transmission while busy detaches the old buffer instead of
	// resetting it under the in-flight task.
	a.RV = 0
	sb2, st2 := h.prepareOwned(a, 17)
	if sb2 == nil || sb2 == sb1 {
		t.Fatal("busy buffer reset/reused for new TX")
	}
	// Release both tasks (what the pool does just before OnDone); the process's
	// current buffer becomes reusable again.
	st1.busy.Store(false)
	st2.busy.Store(false)
	a.RV = 2
	if sb, _ := h.prepareOwned(a, 25); sb != sb2 {
		t.Fatal("released buffer not reused for retransmission")
	}
}

func TestCalibrateDeadlineScale(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow")
	}
	s, err := CalibrateDeadlineScale(phy.BW5MHz, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s < 1 || s > 1e4 {
		t.Fatalf("scale %v implausible", s)
	}
}

func TestPoolDrainEventDriven(t *testing.T) {
	// Drain must wake promptly when the pool quiesces and must be safe with
	// concurrent drainers and submitters (race-detector coverage for the
	// idle condition variable).
	pool := testPool(t, Config{Workers: 2, DeadlineScale: 1000})
	work := frame.SubframeWork{
		Cell: 1, TTI: 4,
		Allocations: []frame.Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 2, MCS: 4, SNRdB: 20},
			{RNTI: 2, FirstPRB: 2, NumPRB: 2, MCS: 4, SNRdB: 20},
		},
	}
	cfg := testCellConfig()
	rrh, _ := NewRRHEmulator(cfg, 5)
	cp, _ := NewCellProcessor(cfg, pool)
	for round := 0; round < 5; round++ {
		payloads, _ := rrh.RandomPayloads(work)
		samples, _ := rrh.Emit(work, payloads)
		if err := cp.IngestSubframe(samples, work, nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for d := 0; d < 3; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pool.Drain()
			}()
		}
		wg.Wait()
		if pool.QueueLen() != 0 {
			t.Fatal("queue not drained")
		}
	}
	// Drain on an idle pool returns immediately.
	pool.Drain()
}

// TestWorkerFootprintFlatAcrossShapes pins the pooling property the worker's
// scratch is built for: what a worker holds depends on the load it is
// handed, not on how many (MCS, PRB) shapes it has ever decoded. The live
// heap after 300 distinct shapes must sit within 1 MB of its value after 3
// (the block sizes' interleavers and rate-match tables are the process's,
// not the worker's, and are built before either reading).
func TestWorkerFootprintFlatAcrossShapes(t *testing.T) {
	type shape struct {
		mcs  phy.MCS
		nprb int
	}
	var shapes []shape
	for i := 0; len(shapes) < 300; i++ {
		s := shape{phy.MCS(i % 29), 1 + (i/29)*5 + i%5}
		tbs, err := s.mcs.TransportBlockSize(s.nprb)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := phy.Segment(tbs + 24)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := phy.NewRateMatcher(seg.K); err != nil {
			t.Fatal(err)
		}
		if _, err := phy.NewQPPInterleaver(seg.K); err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, s)
	}
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1e6, DisableTelemetry: true})
	enc, err := phy.NewTransportProcessor(phy.MaxPRB, phy.DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	decode := func(shapes []shape) {
		t.Helper()
		for i, s := range shapes {
			tbs, _ := s.mcs.TransportBlockSize(s.nprb)
			payload := make([]byte, tbs)
			for j := range payload {
				payload[j] = byte((i + j*j) & 1)
			}
			syms, err := enc.Encode(s.mcs, s.nprb, payload, 9, 42, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			now := time.Now()
			err = pool.Submit(&Task{
				PCI: 42, TTI: 1, Alloc: frame.Allocation{RNTI: 9, NumPRB: s.nprb, MCS: s.mcs},
				REs: append([]complex128(nil), syms...), N0: 1e-3,
				Enqueued: now, Deadline: now.Add(time.Hour),
				OnDone: func(tk *Task) {
					if tk.Err == nil && !bytes.Equal(tk.Payload, payload) {
						tk.Err = errors.New("payload mismatch")
					}
					done <- tk.Err
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("MCS %d / %d PRB: %v", s.mcs, s.nprb, err)
			}
		}
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	decode(shapes[:3])
	after3 := live()
	decode(shapes)
	after300 := live()
	t.Logf("live heap after 3 shapes %d KB, after 300 shapes %d KB", after3>>10, after300>>10)
	if after300 > after3+1<<20 {
		t.Fatalf("live heap grew from %d to %d bytes across 300 shapes", after3, after300)
	}
}
