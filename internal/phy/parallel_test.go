package phy

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// decodeBoth runs the same received subframe through a serial and a parallel
// processor and returns both outcomes.
func decodeBoth(t *testing.T, mcs MCS, nprb, workers int, snrDB float64, seed int64) (serialOut, parOut []byte, serialErr, parErr error, serialIters, parIters int) {
	t.Helper()
	ser, err := newTBProc(mcs, nprb, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := newTBProc(mcs, nprb, DecodeProfile{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()

	rng := rand.New(rand.NewSource(seed))
	payload := randBits(rng, ser.TransportBlockSize())
	syms, err := ser.Encode(payload, 17, 101, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := append([]complex128(nil), syms...)
	ch := NewAWGNChannel(snrDB, seed)
	ch.Apply(rx)

	serialOut, serialErr = ser.Decode(rx, ch.N0(), 17, 101, 4, 0, nil)
	serialIters = ser.Timings.TurboIterations
	serialOut = append([]byte(nil), serialOut...)
	parOut, parErr = par.Decode(rx, ch.N0(), 17, 101, 4, 0, nil)
	parIters = par.Timings.TurboIterations
	parOut = append([]byte(nil), parOut...)
	return
}

func TestParallelDecodeBitIdenticalQuick(t *testing.T) {
	// Property: for random (MCS, PRB, workers), parallel decode of a
	// successfully received subframe is bit-identical to serial decode —
	// same payload, same error outcome, same total turbo iterations.
	cfg := &quick.Config{MaxCount: 10}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	seed := int64(1)
	prop := func(mcsRaw, nprbRaw, workersRaw uint8) bool {
		mcs := MCS(mcsRaw % 29)
		nprb := 1 + int(nprbRaw)%50
		workers := 2 + int(workersRaw)%6
		if _, err := mcs.TransportBlockSize(nprb); err != nil {
			return true // invalid combination, vacuously fine
		}
		seed++
		// 6 dB above the operating point: decode reliably succeeds, so the
		// property exercises the payload path, not just matching failures.
		so, po, se, pe, si, pi := decodeBoth(t, mcs, nprb, workers, mcs.OperatingSNR()+6, seed)
		if (se == nil) != (pe == nil) {
			t.Logf("mcs=%d nprb=%d workers=%d: serial err=%v parallel err=%v", mcs, nprb, workers, se, pe)
			return false
		}
		if se != nil {
			return true
		}
		if si != pi {
			t.Logf("mcs=%d nprb=%d workers=%d: iterations %d vs %d", mcs, nprb, workers, si, pi)
			return false
		}
		if len(so) != len(po) {
			return false
		}
		for i := range so {
			if so[i] != po[i] {
				t.Logf("mcs=%d nprb=%d workers=%d: payload differs at bit %d", mcs, nprb, workers, i)
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
	// Pin the interesting corner deterministically: a high-MCS wide-band TB
	// that segments into many code blocks, across several worker counts
	// (including workers > blocks is covered by small nprb below).
	for _, tc := range []struct {
		mcs     MCS
		nprb    int
		workers int
	}{
		{28, 100, 4}, // C≈13 blocks, the provisioning corner
		{22, 50, 3},
		{16, 25, 8},
		{10, 4, 4}, // single block: workers exceed C
	} {
		so, po, se, pe, si, pi := decodeBoth(t, tc.mcs, tc.nprb, tc.workers,
			tc.mcs.OperatingSNR()+4, int64(tc.mcs)*31+int64(tc.nprb))
		if se != nil || pe != nil {
			t.Fatalf("mcs=%d nprb=%d workers=%d: serial=%v parallel=%v", tc.mcs, tc.nprb, tc.workers, se, pe)
		}
		if si != pi {
			t.Fatalf("mcs=%d nprb=%d workers=%d: iterations %d vs %d", tc.mcs, tc.nprb, tc.workers, si, pi)
		}
		for i := range so {
			if so[i] != po[i] {
				t.Fatalf("mcs=%d nprb=%d workers=%d: payload differs at bit %d", tc.mcs, tc.nprb, tc.workers, i)
			}
		}
	}
}

func TestParallelDecodeFailsAtVeryLowSNR(t *testing.T) {
	// Far below the operating point both paths must report ErrCRC; the
	// parallel path may abort early but the caller-visible outcome matches.
	_, _, se, pe, _, _ := decodeBoth(t, 22, 50, 4, MCS(22).OperatingSNR()-15, 77)
	if !errors.Is(se, ErrCRC) {
		t.Fatalf("serial: expected CRC failure, got %v", se)
	}
	if !errors.Is(pe, ErrCRC) {
		t.Fatalf("parallel: expected CRC failure, got %v", pe)
	}
}

func TestParallelDecodeConcurrentSubframes(t *testing.T) {
	// Race-detector target: many goroutines each own a parallel processor
	// and decode a stream of subframes concurrently — the exact shape of a
	// pool of dataplane workers with intra-task parallelism enabled. Every
	// payload must still verify.
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
			proc, err := newTBProc(mcs, nprb, DecodeProfile{Workers: 2 + g%3})
			if err != nil {
				errs[g] = err
				return
			}
			defer proc.Close()
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
	// The parallel steady state must stay allocation-free like the serial
	// path: resident goroutines, preallocated per-worker decoders, atomic
	// block claiming — nothing on the per-subframe path touches the heap.
	p, err := newTBProc(28, 100, DecodeProfile{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rng := rand.New(rand.NewSource(90))
	payload := randBits(rng, p.TransportBlockSize())
	syms, err := p.Encode(payload, 3, 9, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := append([]complex128(nil), syms...)
	ch := NewAWGNChannel(MCS(28).OperatingSNR()+4, 91)
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
		t.Fatalf("parallel Decode allocates %v times per subframe", allocs)
	}
}

func TestParallelDecoderLifecycle(t *testing.T) {
	pd, err := NewParallelDecoder(DecodeProfile{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pd.Workers() != 3 {
		t.Fatalf("Workers=%d", pd.Workers())
	}
	if _, _, err := pd.Decode(make([][]byte, 2), nil, nil, nil, nil, nil, nil); err == nil {
		t.Fatal("mismatched stream shapes accepted")
	}
	if err := pd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pd.Close(); err != nil {
		t.Fatal(err) // double Close is safe
	}
	if _, _, err := pd.Decode(nil, nil, nil, nil, nil, nil, nil); err == nil {
		t.Fatal("Decode after Close accepted")
	}
	if _, err := NewParallelDecoder(DecodeProfile{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := newTBProc(10, 25, DecodeProfile{Workers: -1}); err == nil {
		t.Fatal("negative transport workers accepted")
	}
}
