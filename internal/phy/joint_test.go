package phy

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// makeSubframe encodes a random payload on proc and returns the payload and
// the noisy received symbols.
func makeSubframe(t *testing.T, proc *tbProc, rnti uint16, snrDB float64, seed int64) (payload []byte, rx []complex128, n0 float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	payload = randBits(rng, proc.TransportBlockSize())
	syms, err := proc.Encode(payload, rnti, 101, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx = append([]complex128(nil), syms...)
	ch := NewAWGNChannel(snrDB, seed)
	ch.Apply(rx)
	return payload, rx, ch.N0()
}

func TestBatchedProcessorBitIdentical(t *testing.T) {
	// A processor with lockstep batching enabled must be bit-identical to
	// the serial int16 processor: same payload, same error outcome, same
	// iteration totals — across worker counts, batch widths, and both
	// front-ends.
	for _, tc := range []struct {
		mcs             MCS
		nprb            int
		workers, batch  int
		frontEnd        FrontEnd
		snrOffset       float64
		wantCRCFailure  bool
		descriptiveName string
	}{
		{28, 100, 1, 8, FrontEndFused, 4, false, "batch only, many blocks"},
		{28, 100, 2, 8, FrontEndFused, 4, false, "workers and batch"},
		{22, 50, 2, 4, FrontEndStaged, 4, false, "staged front-end"},
		{16, 25, 1, 3, FrontEndFused, 4, false, "odd width"},
		{10, 4, 2, 8, FrontEndFused, 4, false, "single block, ragged"},
		{22, 50, 2, 8, FrontEndFused, -15, true, "hopeless SNR aborts"},
	} {
		ser, err := newTBProc(tc.mcs, tc.nprb, DecodeProfile{Kernel: KernelInt16, FrontEnd: tc.frontEnd})
		if err != nil {
			t.Fatal(err)
		}
		bat, err := newTBProc(tc.mcs, tc.nprb, DecodeProfile{
			Workers: tc.workers, Kernel: KernelInt16, FrontEnd: tc.frontEnd, Batch: tc.batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		payload, rx, n0 := makeSubframe(t, ser, 17, tc.mcs.OperatingSNR()+tc.snrOffset, int64(tc.mcs)*13+int64(tc.batch))
		so, se := ser.Decode(rx, n0, 17, 101, 4, 0, nil)
		si := ser.Timings.TurboIterations
		bo, be := bat.Decode(rx, n0, 17, 101, 4, 0, nil)
		bi := bat.Timings.TurboIterations
		if tc.wantCRCFailure {
			if !errors.Is(se, ErrCRC) || !errors.Is(be, ErrCRC) {
				t.Fatalf("%s: expected CRC failures, got serial=%v batched=%v", tc.descriptiveName, se, be)
			}
			bat.Close()
			continue
		}
		if se != nil || be != nil {
			t.Fatalf("%s: serial=%v batched=%v", tc.descriptiveName, se, be)
		}
		if si != bi {
			t.Fatalf("%s: iterations %d vs %d", tc.descriptiveName, si, bi)
		}
		if !bytes.Equal(so, bo) || !bytes.Equal(payload, bo) {
			t.Fatalf("%s: batched payload differs", tc.descriptiveName)
		}
		bat.Close()
	}
}

func TestBatchedProcessorNoAlloc(t *testing.T) {
	// Batched decode must preserve the zero-allocation steady state: the
	// lockstep decoders and gather scratch are worker-resident.
	p, err := newTBProc(28, 100, DecodeProfile{Workers: 2, Kernel: KernelInt16, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, rx, n0 := makeSubframe(t, p, 3, MCS(28).OperatingSNR()+4, 91)
	if _, err := p.Decode(rx, n0, 3, 101, 4, 0, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Decode(rx, n0, 3, 101, 4, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("batched Decode allocates %v times per subframe", allocs)
	}
}

func TestDecodeGroupsIsolatesFailures(t *testing.T) {
	// Two abort groups share one fan-out: corrupting one group's streams
	// must fail that group only, with the healthy group still bit-identical
	// to a serial decode and per-group iteration totals that add up.
	const k = 512
	enc := NewTurboEncoder()
	rng := rand.New(rand.NewSource(7))
	const blocksPerGroup = 3
	var blocks [][]byte
	var ld0, ld1, ld2 [][]float32
	var groups []int32
	var want [][]byte
	for g := 0; g < 2; g++ {
		for b := 0; b < blocksPerGroup; b++ {
			bits := randBits(rng, k-24)
			block := AppendCRC24B(nil, bits)
			d0, d1, d2 := make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)
			if err := enc.Encode(d0, d1, d2, block); err != nil {
				t.Fatal(err)
			}
			s0, s1, s2 := bitsToLLR(d0, 4), bitsToLLR(d1, 4), bitsToLLR(d2, 4)
			if g == 1 && b == 1 {
				// Group 1's middle block is garbage: flip its parity signs.
				for i := range s1 {
					s1[i], s2[i] = -s1[i], -s2[i]
				}
			}
			want = append(want, block)
			blocks = append(blocks, make([]byte, k))
			ld0, ld1, ld2 = append(ld0, s0), append(ld1, s1), append(ld2, s2)
			groups = append(groups, int32(g))
		}
	}
	for _, batch := range []int{1, 4, 8} {
		pd, err := NewParallelDecoder(DecodeProfile{Workers: 2, Kernel: KernelInt16, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		for i := range blocks {
			clear(blocks[i])
		}
		failed := make([]bool, 2)
		total, err := pd.DecodeGroups(blocks, ld0, ld1, ld2, nil, groups, failed, checkBlockCRC24B, nil)
		if err != nil {
			t.Fatal(err)
		}
		if failed[0] || !failed[1] {
			t.Fatalf("batch=%d: failed=%v, want [false true]", batch, failed)
		}
		if got := pd.GroupIters(0) + pd.GroupIters(1); got != total {
			t.Fatalf("batch=%d: group iterations %d+%d != total %d", batch, pd.GroupIters(0), pd.GroupIters(1), total)
		}
		for b := 0; b < blocksPerGroup; b++ {
			if !bytes.Equal(blocks[b], want[b]) {
				t.Fatalf("batch=%d: healthy group block %d differs", batch, b)
			}
		}
		pd.Close()
	}
}

func TestJointDecoderMatchesSerial(t *testing.T) {
	// Three transport blocks of one configuration decode jointly (lockstep
	// batches spanning TB boundaries) with one TB hopeless: the healthy TBs
	// must be bit-identical to serial decodes with matching iteration
	// counts, the hopeless TB must fail alone, and every TB's HARQ soft
	// state — including the failed one's — must match the serial pipeline's.
	const mcs, nprb = 22, 25
	ds, err := NewDecoderSet(DecodeProfile{Workers: 2, Kernel: KernelInt16, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	jd := NewJointDecoder()

	snr := []float64{MCS(mcs).OperatingSNR() + 5, MCS(mcs).OperatingSNR() - 15, MCS(mcs).OperatingSNR() + 6}
	reqs := make([]DecodeRequest, 3)
	wantPayload := make([][]byte, 3)
	wantIters := make([]int, 3)
	wantErr := make([]error, 3)
	wantSoft := make([][]byte, 3)
	for i := range reqs {
		ser := mustProc(t, mcs, nprb, DecodeProfile{Kernel: KernelInt16})
		proc, err := ds.newTBProc(mcs, nprb)
		if err != nil {
			t.Fatal(err)
		}
		payload, rx, n0 := makeSubframe(t, ser, uint16(i+1), snr[i], int64(i)*101+5)
		sb := ser.NewSoftBuffer()
		out, err := ser.Decode(rx, n0, uint16(i+1), 101, 4, 0, sb)
		wantPayload[i] = append([]byte(nil), out...)
		wantErr[i] = err
		wantIters[i] = ser.Timings.TurboIterations
		wantSoft[i] = sb.MarshalAppend(nil)
		if err == nil && !bytes.Equal(out, payload) {
			t.Fatalf("req %d: serial reference decode wrong", i)
		}
		reqs[i] = proc.request(rx, n0, uint16(i+1), 0, proc.NewSoftBuffer())
	}
	if err := jd.DecodeJoint(reqs); err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if (wantErr[i] == nil) != (reqs[i].Err == nil) {
			t.Fatalf("req %d: serial err=%v joint err=%v", i, wantErr[i], reqs[i].Err)
		}
		if wantErr[i] != nil {
			if !errors.Is(reqs[i].Err, ErrCRC) {
				t.Fatalf("req %d: want CRC failure, got %v", i, reqs[i].Err)
			}
		} else {
			if !bytes.Equal(reqs[i].Payload, wantPayload[i]) {
				t.Fatalf("req %d: joint payload differs from serial", i)
			}
			if reqs[i].Iters != wantIters[i] {
				t.Fatalf("req %d: joint iters %d, serial %d", i, reqs[i].Iters, wantIters[i])
			}
			if reqs[i].P.Timings.TurboIterations != reqs[i].Iters {
				t.Fatalf("req %d: Timings.TurboIterations %d != Iters %d", i, reqs[i].P.Timings.TurboIterations, reqs[i].Iters)
			}
		}
		// Soft state matches serially-produced soft state even for the
		// failed TB: prepare runs for every block of aborted groups.
		if got := reqs[i].SB.MarshalAppend(nil); !bytes.Equal(got, wantSoft[i]) {
			t.Fatalf("req %d: joint soft buffer differs from serial", i)
		}
	}
	// A solo decode runs on the decoder the joint decode built: one turbo
	// working set per set, whichever door is used.
	joint := ds.pd
	out, err := reqs[0].P.Decode(mcs, nprb, reqs[0].RX, reqs[0].N0, 1, 101, 4, 0, nil)
	if err != nil || !bytes.Equal(out, wantPayload[0]) {
		t.Fatalf("solo decode after the joint one: %v", err)
	}
	if joint == nil || ds.pd != joint {
		t.Fatal("the solo decode did not run on the joint decode's decoder")
	}
}

func TestJointDecoderValidation(t *testing.T) {
	ds, err := NewDecoderSet(DecodeProfile{Kernel: KernelInt16, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	proc := func() *TransportProcessor {
		p, err := ds.NewProcessor(50)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := proc()
	jd := NewJointDecoder()
	rx := make([]complex128, 25*DataREsPerPRB)
	ok := DecodeRequest{P: base, MCS: 22, NumPRB: 25, RX: rx, N0: 1}
	req := func(p *TransportProcessor) DecodeRequest {
		return DecodeRequest{P: p, MCS: 22, NumPRB: 25, RX: rx, N0: 1}
	}

	if err := jd.DecodeJoint(nil); err != nil {
		t.Fatalf("empty joint decode: %v", err)
	}
	for name, reqs := range map[string][]DecodeRequest{
		"other shape":        {ok, {P: proc(), MCS: 28, NumPRB: 50}},
		"too many PRB":       {{P: base, MCS: 22, NumPRB: 51, RX: rx, N0: 1}},
		"staged front-end":   {req(mustProc(t, 22, 25, DecodeProfile{Kernel: KernelInt16, FrontEnd: FrontEndStaged}).TransportProcessor)},
		"foreign set":        {ok, req(mustProc(t, 22, 25, DecodeProfile{Kernel: KernelInt16}).TransportProcessor)},
		"duplicate":          {ok, ok},
		"short rx":           {{P: base, MCS: 22, NumPRB: 25, RX: rx[:1], N0: 1}},
		"bad rv":             {{P: base, MCS: 22, NumPRB: 25, RX: rx, N0: 1, RV: 9}},
		"wrong-shape buffer": {{P: base, MCS: 22, NumPRB: 25, RX: rx, N0: 1, SB: newSoftBuffer(1, 3)}},
	} {
		if err := jd.DecodeJoint(reqs); !errors.Is(err, ErrBadParameter) {
			t.Fatalf("%s: want ErrBadParameter, got %v", name, err)
		}
	}

	// Batch construction guards: a non-int16 kernel cannot batch, and the
	// explicit-batch constructor surfaces BatchDecoderI16's width range.
	if _, err := NewParallelDecoder(DecodeProfile{Kernel: KernelFloat32, Batch: 8}); !errors.Is(err, ErrBadParameter) {
		t.Fatalf("float32 batch accepted: %v", err)
	}
	if _, err := NewParallelDecoder(DecodeProfile{Kernel: KernelInt16, Batch: 65}); !errors.Is(err, ErrBadParameter) {
		t.Fatalf("width 65 accepted: %v", err)
	}
	if pd, err := NewParallelDecoder(DecodeProfile{Kernel: KernelInt16, Batch: 8}); err != nil {
		t.Fatal(err)
	} else {
		if _, err := pd.DecodeGroups(make([][]byte, 1), make([][]float32, 1), make([][]float32, 1), make([][]float32, 1), nil, []int32{1}, make([]bool, 1), nil, nil); !errors.Is(err, ErrBadParameter) {
			t.Fatalf("out-of-range group tag accepted: %v", err)
		}
		if _, err := pd.DecodeGroups(nil, nil, nil, nil, nil, nil, nil, nil, nil); !errors.Is(err, ErrBadParameter) {
			t.Fatalf("zero group slots accepted: %v", err)
		}
		pd.Close()
	}
}

func mustProc(t *testing.T, mcs MCS, nprb int, o DecodeProfile) *tbProc {
	t.Helper()
	p, err := newTBProc(mcs, nprb, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
