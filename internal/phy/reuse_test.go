package phy

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// reuseTB is one transport block of a reuse test: its shape, both
// transmissions' noisy symbols, and what a processor built for this block
// alone made of them.
type reuseTB struct {
	mcs  MCS
	nprb int
	rx   [2][]complex128
	n0   float64
	sb   *SoftBuffer // nil: the processor's own buffer, no combining

	want [2]reuseOutcome
}

type reuseOutcome struct {
	payload []byte
	failed  bool
	soft    []byte
	iters   int
}

func outcomeOf(p *TransportProcessor, out []byte, err error, sb *SoftBuffer) reuseOutcome {
	if sb == nil {
		sb = p.softBuf
	}
	return reuseOutcome{
		payload: append([]byte(nil), out...), failed: err != nil,
		soft: sb.MarshalAppend(nil), iters: p.Timings.TurboIterations,
	}
}

func (o reuseOutcome) equal(w reuseOutcome) bool {
	return o.failed == w.failed && o.iters == w.iters && bytes.Equal(o.payload, w.payload) && bytes.Equal(o.soft, w.soft)
}

// newReuseTB draws a payload for the shape, sends it at the operating-point
// SNR with RV 0 and RV 2, and records the outcome of decoding both on a
// fresh processor sized for this shape alone.
func newReuseTB(t *testing.T, mcs MCS, nprb int, o DecodeProfile, ownSoft bool, seed int64) *reuseTB {
	t.Helper()
	p, err := NewTransportProcessor(nprb, o)
	if err != nil {
		t.Fatal(err)
	}
	tbs, err := mcs.TransportBlockSize(nprb)
	if err != nil {
		t.Fatal(err)
	}
	tb := &reuseTB{mcs: mcs, nprb: nprb}
	payload := randBits(rand.New(rand.NewSource(seed)), tbs)
	ch := NewAWGNChannel(mcs.OperatingSNR(), seed)
	tb.n0 = ch.N0()
	var ref *SoftBuffer
	if ownSoft {
		if tb.sb, err = NewSoftBuffer(mcs, nprb); err != nil {
			t.Fatal(err)
		}
		ref, _ = NewSoftBuffer(mcs, nprb)
	}
	for r, rv := range goldenRVs {
		syms, err := p.Encode(mcs, nprb, payload, 21, 7, 3, rv)
		if err != nil {
			t.Fatal(err)
		}
		tb.rx[r] = append([]complex128(nil), syms...)
		ch.Apply(tb.rx[r])
		out, err := p.Decode(mcs, nprb, tb.rx[r], tb.n0, 21, 7, 3, rv, ref)
		if err != nil && !errors.Is(err, ErrCRC) {
			t.Fatal(err)
		}
		tb.want[r] = outcomeOf(p, out, err, ref)
	}
	return tb
}

// TestProcessorReuseMatchesFresh is the stale-state property: one processor
// (and its one turbo decoder) decoding a random interleaving of shapes and
// redundancy versions gives, for every decode, the payload, the soft buffer
// and the iteration count of a processor built fresh for that transport
// block — starting with the largest shape followed by a three-PRB shape with
// filler bits, the pair that leaves the most behind.
func TestProcessorReuseMatchesFresh(t *testing.T) {
	for name, o := range map[string]DecodeProfile{
		"default": {},
		"scalar":  {Batch: 1},
		"float32": {Kernel: KernelFloat32},
		"staged":  {FrontEnd: FrontEndStaged},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			tbs := []*reuseTB{
				newReuseTB(t, MaxMCS, MaxPRB, o, true, 1),
				newReuseTB(t, 10, 3, o, true, 2),
			}
			if sh, _ := shapeOf(10, 3); sh.seg.F == 0 {
				t.Fatal("the small shape carries no filler bits")
			}
			n := 24
			if testing.Short() || o.Kernel == KernelFloat32 {
				n = 8
			}
			for i := 0; i < n; i++ {
				nprb := 1 + rng.Intn(30)
				if i%6 == 0 {
					nprb = 40 + rng.Intn(61)
				}
				tbs = append(tbs, newReuseTB(t, MCS(rng.Intn(int(MaxMCS)+1)), nprb, o, i%3 != 0, int64(100+i)))
			}
			// Every block appears twice in the order, its first appearance
			// being RV 0 and its second RV 2; the large and the small shape
			// lead, the rest is shuffled.
			order := []int{0, 1, 0, 1}
			for i := 2; i < len(tbs); i++ {
				order = append(order, i, i)
			}
			rng.Shuffle(len(order)-4, func(i, j int) { order[4+i], order[4+j] = order[4+j], order[4+i] })

			p, err := NewTransportProcessor(MaxPRB, o)
			if err != nil {
				t.Fatal(err)
			}
			sent := make([]int, len(tbs))
			for _, i := range order {
				tb, r := tbs[i], sent[i]
				sent[i]++
				out, err := p.Decode(tb.mcs, tb.nprb, tb.rx[r], tb.n0, 21, 7, 3, goldenRVs[r], tb.sb)
				if err != nil && !errors.Is(err, ErrCRC) {
					t.Fatal(err)
				}
				if got, want := outcomeOf(p, out, err, tb.sb), tb.want[r]; !got.equal(want) {
					t.Fatalf("MCS %d / %d PRB rv %d: reused processor failed=%v iters=%d, fresh failed=%v iters=%d (payload equal %v, soft equal %v)",
						tb.mcs, tb.nprb, goldenRVs[r], got.failed, got.iters, want.failed, want.iters,
						bytes.Equal(got.payload, want.payload), bytes.Equal(got.soft, want.soft))
				}
			}
		})
	}
}

// plannedShapes returns n shapes of distinct (MCS, PRB) whose block sizes'
// plans exist, so that processing them exercises no plan construction.
func plannedShapes(t *testing.T, n int, maxPRB int) []goldenShape {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	seen := map[goldenShape]bool{}
	var out []goldenShape
	for len(out) < n {
		s := goldenShape{MCS(rng.Intn(int(MaxMCS) + 1)), 1 + rng.Intn(maxPRB)}
		if seen[s] {
			continue
		}
		seen[s] = true
		sh, err := shapeOf(s.mcs, s.nprb)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewRateMatcher(sh.seg.K); err != nil {
			t.Fatal(err)
		}
		if _, err := NewQPPInterleaver(sh.seg.K); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestProcessorNoAllocOnNewShape pins the footprint contract: once a block
// size's plans exist, the first Encode and the first Decode of a shape the
// processor has never seen allocate nothing — with or without a caller's
// soft buffer, for the default path, the scalar decoders and the staged
// front-end.
func TestProcessorNoAllocOnNewShape(t *testing.T) {
	for name, o := range map[string]DecodeProfile{
		"default": {},
		"float32": {Kernel: KernelFloat32},
		"staged":  {FrontEnd: FrontEndStaged, Batch: 1},
	} {
		t.Run(name, func(t *testing.T) {
			const runs = 6
			shapes := plannedShapes(t, 2*(runs+1)+1, 50)
			src, err := NewTransportProcessor(50, DecodeProfile{})
			if err != nil {
				t.Fatal(err)
			}
			type input struct {
				payload []byte
				rx      []complex128
				n0      float64
			}
			in := make([]input, len(shapes))
			for i, s := range shapes {
				tbs, _ := s.mcs.TransportBlockSize(s.nprb)
				in[i].payload = randBits(rand.New(rand.NewSource(int64(i))), tbs)
				syms, err := src.Encode(s.mcs, s.nprb, in[i].payload, 3, 9, 4, 0)
				if err != nil {
					t.Fatal(err)
				}
				in[i].rx = append([]complex128(nil), syms...)
				ch := NewAWGNChannel(s.mcs.OperatingSNR()+3, int64(i))
				ch.Apply(in[i].rx)
				in[i].n0 = ch.N0()
			}
			p, err := NewTransportProcessor(50, o)
			if err != nil {
				t.Fatal(err)
			}
			// One decode builds the decode side and the turbo working set;
			// everything after it is a shape the processor meets for the
			// first time.
			last := len(shapes) - 1
			if _, err := p.Decode(shapes[last].mcs, shapes[last].nprb, in[last].rx, in[last].n0, 3, 9, 4, 0, nil); err != nil {
				t.Fatal(err)
			}
			sb := &SoftBuffer{}
			sb.reshape(4, MaxBlockSize+4)
			next := 0
			if a := testing.AllocsPerRun(runs, func() {
				s := shapes[next]
				if _, err := p.Encode(s.mcs, s.nprb, in[next].payload, 3, 9, 4, 0); err != nil {
					t.Fatal(err)
				}
				next++
			}); a > 0 {
				t.Errorf("Encode of a never-seen shape allocates %v times", a)
			}
			if a := testing.AllocsPerRun(runs, func() {
				s := shapes[next]
				var own *SoftBuffer
				if next%2 == 0 {
					if err := sb.Reshape(s.mcs, s.nprb); err != nil {
						t.Fatal(err)
					}
					own = sb
				}
				out, err := p.Decode(s.mcs, s.nprb, in[next].rx, in[next].n0, 3, 9, 4, 0, own)
				if err != nil || !bytes.Equal(out, in[next].payload) {
					t.Fatalf("MCS %d / %d PRB: %v", s.mcs, s.nprb, err)
				}
				next++
			}); a > 0 {
				t.Errorf("Decode of a never-seen shape allocates %v times", a)
			}
		})
	}
}

// TestPlansSharedAcrossGoroutines runs two goroutines, each with a working
// set of its own, through the same shapes at once: the only memory they
// share is the block sizes' plans, which are read-only once built and whose
// first build may race (the loser's copy is dropped). Run under -race.
func TestPlansSharedAcrossGoroutines(t *testing.T) {
	shapes := []goldenShape{{7, 13}, {19, 9}, {25, 31}, {28, 60}}
	var wg sync.WaitGroup
	outs := make([][][]byte, 2)
	for g := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewTransportProcessor(MaxPRB, DecodeProfile{})
			if err != nil {
				t.Error(err)
				return
			}
			for i, s := range shapes {
				tbs, _ := s.mcs.TransportBlockSize(s.nprb)
				payload := randBits(rand.New(rand.NewSource(int64(i))), tbs)
				syms, err := p.Encode(s.mcs, s.nprb, payload, 1, 2, 3, 0)
				if err != nil {
					t.Error(err)
					return
				}
				rx := append([]complex128(nil), syms...)
				ch := NewAWGNChannel(s.mcs.OperatingSNR()+3, int64(i))
				ch.Apply(rx)
				out, err := p.Decode(s.mcs, s.nprb, rx, ch.N0(), 1, 2, 3, 0, nil)
				if err != nil || !bytes.Equal(out, payload) {
					t.Errorf("goroutine %d, MCS %d / %d PRB: %v", g, s.mcs, s.nprb, err)
					return
				}
				outs[g] = append(outs[g], append([]byte(nil), out...))
			}
		}()
	}
	wg.Wait()
	for i := range outs[0] {
		if i < len(outs[1]) && !bytes.Equal(outs[0][i], outs[1][i]) {
			t.Fatalf("shape %d decoded differently on the two goroutines", i)
		}
	}
}

// TestProcessorScratchCoversEveryShape checks the sizing argument of
// NewTransportProcessor and initDecode by enumeration: for every
// construction PRB count, no shape the processor accepts needs more
// transport-block bits, coded bits, code blocks, block bits or soft values
// than the top shape's bounds provide.
func TestProcessorScratchCoversEveryShape(t *testing.T) {
	for maxPRB := 1; maxPRB <= MaxPRB; maxPRB++ {
		top, err := shapeOf(MaxMCS, maxPRB)
		if err != nil {
			t.Fatal(err)
		}
		b, c := top.seg.B, top.seg.C
		for m := MCS(0); m <= MaxMCS; m++ {
			for n := 1; n <= maxPRB; n++ {
				sh, err := shapeOf(m, n)
				if err != nil {
					t.Fatal(err)
				}
				if sh.seg.B > b || sh.e > top.e || sh.seg.C > c || sh.seg.C*sh.seg.K > b+88*c || sh.seg.C*(sh.seg.K+4) > c*(b/c+93) {
					t.Fatalf("built for %d PRB: MCS %d / %d PRB (%+v) exceeds the scratch sized from %+v", maxPRB, m, n, sh.seg, top.seg)
				}
			}
		}
	}
}
