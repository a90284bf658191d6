package dataplane

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// claimShapes returns allocations of one turbo block size K that segment
// into one, two and three code blocks.
func claimShapes(t *testing.T) map[int]frame.Allocation {
	t.Helper()
	byK := map[int]map[int]frame.Allocation{}
	var ks []int
	for m := phy.MCS(0); m <= phy.MaxMCS; m++ {
		for n := 1; n <= phy.MaxPRB; n++ {
			tbs, err := m.TransportBlockSize(n)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := phy.Segment(tbs + 24)
			if err != nil {
				t.Fatal(err)
			}
			if byK[seg.K] == nil {
				byK[seg.K] = map[int]frame.Allocation{}
				ks = append(ks, seg.K)
			}
			if _, ok := byK[seg.K][seg.C]; !ok {
				byK[seg.K][seg.C] = frame.Allocation{NumPRB: n, MCS: m}
			}
		}
	}
	sort.Ints(ks)
	for _, k := range ks {
		g := byK[k]
		_, one := g[1]
		_, two := g[2]
		_, three := g[3]
		if one && two && three {
			return g
		}
	}
	t.Fatal("no K serves one-, two- and three-block transport blocks")
	return nil
}

// claimCase is one task of a claim test and what a serial decode of it
// gives.
type claimCase struct {
	alloc   frame.Allocation
	pci     uint16
	tti     frame.TTI
	payload []byte
	rx      []complex128
	n0      float64
	soft    *phy.SoftBuffer // the task's HARQ buffer, nil for none
	ref     *phy.SoftBuffer // the serial decode's copy of it

	wantPayload []byte
	wantErr     error
	wantIters   int
}

func (c *claimCase) send(t *testing.T, enc *phy.TransportProcessor, snrDB float64, seed int64) {
	t.Helper()
	syms, err := enc.Encode(c.alloc.MCS, c.alloc.NumPRB, c.payload, uint16(c.alloc.RNTI), c.pci, c.tti.Subframe(), int(c.alloc.RV))
	if err != nil {
		t.Fatal(err)
	}
	c.rx = append([]complex128(nil), syms...)
	ch := phy.NewAWGNChannel(snrDB, seed)
	ch.Apply(c.rx)
	c.n0 = ch.N0()
}

// serial decodes the case alone on ref, the oracle the pool must match.
func (c *claimCase) serial(t *testing.T, ref *phy.TransportProcessor) {
	t.Helper()
	out, err := ref.Decode(c.alloc.MCS, c.alloc.NumPRB, c.rx, c.n0, uint16(c.alloc.RNTI), c.pci, c.tti.Subframe(), int(c.alloc.RV), c.ref)
	if err != nil && !errors.Is(err, phy.ErrCRC) {
		t.Fatal(err)
	}
	c.wantPayload, c.wantErr, c.wantIters = append([]byte(nil), out...), err, ref.Timings.TurboIterations
}

// blockWorkers parks every worker of pool on a gate task, so that what is
// submitted next is queued whole before any worker claims; closing the
// returned channel releases them.
func blockWorkers(t *testing.T, pool *Pool) chan struct{} {
	t.Helper()
	gate := make(chan struct{})
	now := time.Now()
	for i := 0; i < pool.Config().Workers; i++ {
		err := pool.Submit(&Task{
			Enqueued: now, Deadline: now,
			runInstead: func(*worker, *Task) { <-gate },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A worker parked on a gate holds it, so an empty queue means every
	// worker holds one.
	for pool.QueueLen() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	return gate
}

// TestClaimMatchesSerialDecode runs a queue of mixed single-block and
// segmented transport blocks of one K — several cells, RNTIs, subframes and
// deadlines, half on HARQ buffers, with a round of RV 2 retransmissions
// that combine inside shared spans — through pools of 1, 2 and 3 workers.
// Every task must come out with the payload, error, iteration count and
// soft-buffer bytes of a serial Decode of it alone, and the workers must
// have shared spans across tasks.
func TestClaimMatchesSerialDecode(t *testing.T) {
	byC := claimShapes(t)
	enc, err := phy.NewTransportProcessor(phy.MaxPRB, phy.DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := phy.NewTransportProcessor(phy.MaxPRB, phy.DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(workers)))
			var cases []*claimCase
			for i, c := range []int{3, 1, 2, 1, 1, 3, 1, 2, 1, 1, 1, 2} {
				a := byC[c]
				a.RNTI = frame.RNTI(70 + i)
				a.HARQProcess = uint8(i % 8)
				tbs, err := a.MCS.TransportBlockSize(a.NumPRB)
				if err != nil {
					t.Fatal(err)
				}
				cc := &claimCase{alloc: a, pci: uint16(10 + i%3), tti: frame.TTI(20 + i), payload: make([]byte, tbs)}
				for j := range cc.payload {
					cc.payload[j] = byte(rng.Intn(2))
				}
				if i%2 == 0 {
					if cc.soft, err = phy.NewSoftBuffer(a.MCS, a.NumPRB); err != nil {
						t.Fatal(err)
					}
					cc.ref, _ = phy.NewSoftBuffer(a.MCS, a.NumPRB)
				}
				cases = append(cases, cc)
			}
			reg := telemetry.New(workers + 1)
			pool := testPool(t, Config{Workers: workers, DeadlineScale: 1e6, Telemetry: reg})
			round := func(cases []*claimCase, snrOffset float64, seed int64) {
				t.Helper()
				for i, c := range cases {
					c.send(t, enc, c.alloc.MCS.OperatingSNR()+snrOffset, seed+int64(i))
					c.serial(t, ref)
				}
				spans0, _ := reg.Snapshot().Histogram(MetricBatchWidth)
				gate := blockWorkers(t, pool)
				now := time.Now()
				got := make([]*Task, len(cases))
				payloads := make([][]byte, len(cases))
				for i, c := range cases {
					got[i] = &Task{
						PCI: c.pci, TTI: c.tti, Alloc: c.alloc, REs: c.rx, N0: c.n0, Soft: c.soft,
						Enqueued: now, Deadline: now.Add(time.Duration(1+rng.Intn(4)) * time.Hour),
						OnDone: func(tk *Task) { payloads[i] = append([]byte(nil), tk.Payload...) },
					}
					if err := pool.Submit(got[i]); err != nil {
						t.Fatal(err)
					}
				}
				close(gate)
				pool.Drain()
				for i, c := range cases {
					tk := got[i]
					if (tk.Err == nil) != (c.wantErr == nil) || errors.Is(tk.Err, phy.ErrCRC) != errors.Is(c.wantErr, phy.ErrCRC) ||
						tk.TurboIterations != c.wantIters || !bytes.Equal(payloads[i], c.wantPayload) {
						t.Fatalf("task %d (MCS %d / %d PRB, rv %d): err=%v iters=%d, serial err=%v iters=%d (payload equal %v)",
							i, tk.Alloc.MCS, tk.Alloc.NumPRB, tk.Alloc.RV, tk.Err, tk.TurboIterations, c.wantErr, c.wantIters, bytes.Equal(payloads[i], c.wantPayload))
					}
					if c.soft != nil && !bytes.Equal(c.soft.MarshalAppend(nil), c.ref.MarshalAppend(nil)) {
						t.Fatalf("task %d: soft buffer differs from the serial decode's", i)
					}
				}
				spans1, _ := reg.Snapshot().Histogram(MetricBatchWidth)
				if n := spans1.State.Count - spans0.State.Count; n >= uint64(len(cases)) {
					t.Fatalf("%d tasks decoded in %d spans: no span was shared", len(cases), n)
				}
			}
			// First transmissions just below the operating point, where
			// some blocks fail; then every HARQ case retransmits at RV 2
			// beside fresh single-block tasks, combining in shared spans.
			round(cases, -0.6, 100)
			var retx []*claimCase
			for _, c := range cases {
				if c.soft != nil {
					c.alloc.RV = 2
					retx = append(retx, c)
				}
			}
			for _, c := range cases {
				if c.soft == nil && c.alloc.NumPRB == byC[1].NumPRB {
					c.tti += 8
					retx = append(retx, c)
				}
			}
			round(retx, -0.6, 200)
		})
	}
}

// TestDrainReturnsAfterEveryOnDone: when Drain returns, every OnDone of the
// drained tasks has returned and every HARQ process is at rest, so a
// migration snapshot taken right after it carries them all. Run with -race
// -count=10.
func TestDrainReturnsAfterEveryOnDone(t *testing.T) {
	pool := testPool(t, Config{Workers: 2, DeadlineScale: 1000})
	cfg := testCellConfig()
	rrh, err := NewRRHEmulator(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCellProcessor(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	work := frame.SubframeWork{Cell: 1}
	for i := 0; i < 3; i++ {
		work.Allocations = append(work.Allocations, frame.Allocation{
			RNTI: frame.RNTI(1 + i), FirstPRB: 2 * i, NumPRB: 2, MCS: 4, HARQProcess: uint8(i), SNRdB: 20,
		})
	}
	var done atomic.Int64
	onDone := func(*Task) {
		// A slow callback widens the window in which a drainer could
		// overtake it.
		time.Sleep(2 * time.Millisecond)
		done.Add(1)
	}
	for round := 0; round < 4; round++ {
		work.TTI = frame.TTI(round)
		payloads, err := rrh.RandomPayloads(work)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := rrh.Emit(work, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.IngestSubframe(samples, work, onDone); err != nil {
			t.Fatal(err)
		}
		pool.Drain()
		if want := int64((round + 1) * len(work.Allocations)); done.Load() != want {
			t.Fatalf("round %d: Drain returned after %d OnDone calls, want %d", round, done.Load(), want)
		}
		for key, st := range cp.HARQ().states {
			if st.busy.Load() {
				t.Fatalf("round %d: HARQ process %v still busy after Drain", round, key)
			}
		}
		blob, err := cp.HARQ().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back := NewHARQManager()
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		if back.Processes() != cp.HARQ().Processes() {
			t.Fatalf("round %d: the snapshot after Drain holds %d of %d HARQ processes", round, back.Processes(), cp.HARQ().Processes())
		}
	}
}

// TestWarmClaimNoAlloc: a worker executing a warm claim of eight
// single-block tasks — a full span — allocates nothing.
func TestWarmClaimNoAlloc(t *testing.T) {
	a := claimShapes(t)[1]
	tbs, err := a.MCS.TransportBlockSize(a.NumPRB)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := phy.NewTransportProcessor(phy.MaxPRB, phy.DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1e6, Telemetry: telemetry.New(2)})
	w := newWorker(pool, 0)
	claim := make([]*Task, phy.MaxJointBlocks)
	for i := range claim {
		payload := make([]byte, tbs)
		for j := range payload {
			payload[j] = byte((i + j*j) >> 2 & 1)
		}
		syms, err := enc.Encode(a.MCS, a.NumPRB, payload, uint16(i), 42, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		claim[i] = &Task{PCI: 42, TTI: 1, Alloc: frame.Allocation{RNTI: frame.RNTI(i), NumPRB: a.NumPRB, MCS: a.MCS},
			REs: append([]complex128(nil), syms...), N0: 1e-3, Deadline: time.Now().Add(time.Hour)}
	}
	run := func() {
		w.execute(claim)
		for i, tk := range claim {
			if tk.Err != nil {
				t.Fatalf("task %d: %v", i, tk.Err)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs > 0 {
		t.Fatalf("a warm claim of %d tasks allocates %v times", len(claim), allocs)
	}
}
