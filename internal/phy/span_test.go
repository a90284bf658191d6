package phy

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// decodeBoth runs the same received subframe through the per-block
// reference processor (the scalar decoder, lockstep width 1) and the
// default one decoding lockstep spans, and returns both outcomes.
func decodeBoth(t *testing.T, mcs MCS, nprb int, snrDB float64, seed int64) (scalarOut, spanOut []byte, scalarErr, spanErr error, scalarIters, spanIters int) {
	t.Helper()
	ser, err := newTBProc(mcs, nprb, pipeline{turbo: turboPerBlock})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := newTBProc(mcs, nprb, pipeline{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	payload := randBits(rng, ser.TransportBlockSize())
	syms, err := ser.Encode(payload, 17, 101, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := append([]complex128(nil), syms...)
	ch := NewAWGNChannel(snrDB, seed)
	ch.Apply(rx)

	scalarOut, scalarErr = ser.Decode(rx, ch.N0(), 17, 101, 4, 0, nil)
	scalarIters = ser.Timings.TurboIterations
	scalarOut = append([]byte(nil), scalarOut...)
	spanOut, spanErr = sp.Decode(rx, ch.N0(), 17, 101, 4, 0, nil)
	spanIters = sp.Timings.TurboIterations
	spanOut = append([]byte(nil), spanOut...)
	return
}

func TestParallelDecodeBitIdenticalQuick(t *testing.T) {
	// Property: for random (MCS, PRB), span decode of a successfully
	// received subframe is bit-identical to scalar per-block decode — same
	// payload, same error outcome, same total turbo iterations.
	cfg := &quick.Config{MaxCount: 10}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	seed := int64(1)
	prop := func(mcsRaw, nprbRaw uint8) bool {
		mcs := MCS(mcsRaw % 29)
		nprb := 1 + int(nprbRaw)%50
		if _, err := mcs.TransportBlockSize(nprb); err != nil {
			return true // invalid combination, vacuously fine
		}
		seed++
		// 6 dB above the operating point: decode reliably succeeds, so the
		// property exercises the payload path, not just matching failures.
		so, po, se, pe, si, pi := decodeBoth(t, mcs, nprb, mcs.OperatingSNR()+6, seed)
		if (se == nil) != (pe == nil) {
			t.Logf("mcs=%d nprb=%d: scalar err=%v span err=%v", mcs, nprb, se, pe)
			return false
		}
		if se != nil {
			return true
		}
		if si != pi {
			t.Logf("mcs=%d nprb=%d: iterations %d vs %d", mcs, nprb, si, pi)
			return false
		}
		if len(so) != len(po) {
			return false
		}
		for i := range so {
			if so[i] != po[i] {
				t.Logf("mcs=%d nprb=%d: payload differs at bit %d", mcs, nprb, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParallelDecodeBitIdenticalMultiBlock(t *testing.T) {
	// Pin the interesting corners deterministically: transport blocks that
	// segment into many code blocks, cut into full, ragged and lone spans.
	for _, tc := range []struct {
		mcs  MCS
		nprb int
	}{
		{28, 100}, // 14 blocks, the provisioning corner: a full span and a ragged one
		{21, 100}, // 9 blocks: a full span and a lone block
		{22, 50},  // 5 blocks: one ragged span
		{16, 25},  // 2 blocks
		{10, 4},   // single block: the width exceeds C
	} {
		so, po, se, pe, si, pi := decodeBoth(t, tc.mcs, tc.nprb,
			tc.mcs.OperatingSNR()+4, int64(tc.mcs)*31+int64(tc.nprb))
		if se != nil || pe != nil {
			t.Fatalf("mcs=%d nprb=%d: scalar=%v span=%v", tc.mcs, tc.nprb, se, pe)
		}
		if si != pi {
			t.Fatalf("mcs=%d nprb=%d: iterations %d vs %d", tc.mcs, tc.nprb, si, pi)
		}
		for i := range so {
			if so[i] != po[i] {
				t.Fatalf("mcs=%d nprb=%d: payload differs at bit %d", tc.mcs, tc.nprb, i)
			}
		}
	}
}

func TestParallelDecodeFailsAtVeryLowSNR(t *testing.T) {
	// Far below the operating point both paths must report ErrCRC; the
	// span path stops after its first failed span but the caller-visible
	// outcome matches.
	_, _, se, pe, _, _ := decodeBoth(t, 22, 50, MCS(22).OperatingSNR()-15, 77)
	if !errors.Is(se, ErrCRC) {
		t.Fatalf("scalar: expected CRC failure, got %v", se)
	}
	if !errors.Is(pe, ErrCRC) {
		t.Fatalf("span: expected CRC failure, got %v", pe)
	}
}

func TestParallelDecodeConcurrentSubframes(t *testing.T) {
	// Race-detector target: many goroutines each own a processor, and with
	// it a turbo decoder, and decode a stream of subframes concurrently —
	// the exact shape of a pool of dataplane workers, sharing only the
	// read-only plans. Every payload must still verify.
	const goroutines = 6
	subframes := 8
	if testing.Short() {
		subframes = 3
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mcs := MCS(10 + 3*(g%4))
			nprb := 10 + 5*g
			proc, err := newTBProc(mcs, nprb, pipeline{})
			if err != nil {
				errs[g] = err
				return
			}
			rng := rand.New(rand.NewSource(int64(g) * 17))
			payload := randBits(rng, proc.TransportBlockSize())
			syms, err := proc.Encode(payload, uint16(g+1), 101, 4, 0)
			if err != nil {
				errs[g] = err
				return
			}
			rx := append([]complex128(nil), syms...)
			ch := NewAWGNChannel(mcs.OperatingSNR()+5, int64(g)*29+1)
			ch.Apply(rx)
			for s := 0; s < subframes; s++ {
				out, err := proc.Decode(rx, ch.N0(), uint16(g+1), 101, 4, 0, nil)
				if err != nil {
					errs[g] = err
					return
				}
				for i := range payload {
					if out[i] != payload[i] {
						errs[g] = errors.New("payload mismatch")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

func TestParallelDecodeNoAlloc(t *testing.T) {
	// A transport block whose last code block is a span of its own (9
	// blocks: a full span, then a lone block on the scalar decoder) must
	// stay allocation-free like a full one: both decoders and their
	// working sets are built once.
	p, err := newTBProc(21, 100, pipeline{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(90))
	payload := randBits(rng, p.TransportBlockSize())
	syms, err := p.Encode(payload, 3, 9, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := append([]complex128(nil), syms...)
	ch := NewAWGNChannel(MCS(21).OperatingSNR()+4, 91)
	ch.Apply(rx)
	if _, err := p.Decode(rx, ch.N0(), 3, 9, 4, 0, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Decode(rx, ch.N0(), 3, 9, 4, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("span Decode allocates %v times per subframe", allocs)
	}
}

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
	// The lockstep processor must be bit-identical to the scalar per-block
	// reference: same payload, same error outcome, same iteration totals —
	// behind the fused front-end and behind the staged reference one.
	for _, tc := range []struct {
		mcs             MCS
		nprb            int
		staged          bool
		snrOffset       float64
		wantCRCFailure  bool
		descriptiveName string
	}{
		{28, 100, false, 4, false, "many blocks"},
		{22, 50, true, 4, false, "staged front-end"},
		{16, 25, false, 4, false, "two blocks"},
		{10, 4, false, 4, false, "single block, ragged"},
		{22, 50, false, -15, true, "hopeless SNR aborts"},
	} {
		ser, err := newTBProc(tc.mcs, tc.nprb, pipeline{turbo: turboPerBlock, staged: tc.staged})
		if err != nil {
			t.Fatal(err)
		}
		bat, err := newTBProc(tc.mcs, tc.nprb, pipeline{staged: tc.staged})
		if err != nil {
			t.Fatal(err)
		}
		payload, rx, n0 := makeSubframe(t, ser, 17, tc.mcs.OperatingSNR()+tc.snrOffset, int64(tc.mcs)*13+int64(tc.nprb))
		so, se := ser.Decode(rx, n0, 17, 101, 4, 0, nil)
		si := ser.Timings.TurboIterations
		bo, be := bat.Decode(rx, n0, 17, 101, 4, 0, nil)
		bi := bat.Timings.TurboIterations
		if tc.wantCRCFailure {
			if !errors.Is(se, ErrCRC) || !errors.Is(be, ErrCRC) {
				t.Fatalf("%s: expected CRC failures, got serial=%v batched=%v", tc.descriptiveName, se, be)
			}
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
	}
}

func TestBatchedProcessorNoAlloc(t *testing.T) {
	// Batched decode must preserve the zero-allocation steady state: the
	// lockstep decoder and its working set belong to the processor.
	p, err := newTBProc(28, 100, pipeline{})
	if err != nil {
		t.Fatal(err)
	}
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
