//go:build amd64 && !purego

package phy

import (
	"bytes"
	"math/rand"
	"testing"
)

// The state-parallel AVX2 SISO against the pure-Go sisoI16 in the same
// binary. A decoder runs one of them on a given host, so without these the
// other is checked only on a different build.

// sisoInputs returns the quantized streams of one constituent pass of
// block size k: ls and lp of length k+3 (tails included) within the
// channel saturation, la of length k within the extrinsic clamp. mode picks
// their distribution — 0: uniform over the legal ranges; 1: the extremes,
// every stream at ±i16LLRSat and the a-priori at ±i16ExtSat or 0, which
// pushes the metrics to the edges of the bounds the int16 arithmetic relies
// on; 2: a handful of small values, so that the butterflies and the
// extrinsic's maxima tie all the time. raw overwrites values at positions
// it names, clamped to the legal ranges.
func sisoInputs(rng *rand.Rand, k int, mode uint8, raw []byte) (ls, lp, la []int16) {
	ls, lp, la = make([]int16, k+turboTail), make([]int16, k+turboTail), make([]int16, k)
	pick := func(lim int) int16 {
		switch mode % 3 {
		case 1:
			return int16(lim * (rng.Intn(3) - 1))
		case 2:
			return int16(rng.Intn(5) - 2)
		default:
			return int16(rng.Intn(2*lim+1) - lim)
		}
	}
	for i := range ls {
		ls[i], lp[i] = pick(i16LLRSat), pick(i16LLRSat)
	}
	for i := range la {
		la[i] = pick(i16ExtSat)
	}
	for i := 0; i+3 <= len(raw); i += 3 {
		pos := (int(raw[i])<<8 | int(raw[i+1])) % k
		v := int(int8(raw[i+2])) * 33
		ls[pos] = int16(min(max(v, -i16LLRSat), i16LLRSat))
		lp[(pos+1)%k] = int16(min(max(-v, -i16LLRSat), i16LLRSat))
		la[(pos+2)%k] = int16(min(max(2*v, -i16ExtSat), i16ExtSat))
	}
	return ls, lp, la
}

// checkSISOTwin runs both SISOs over one pass and fails on the first
// extrinsic or forward-metric difference.
func checkSISOTwin(t *testing.T, k int, ls, lp, la []int16) {
	t.Helper()
	ext, alpha := make([]int16, k), make([]int16, k*turboStates)
	wantExt, wantAlpha := make([]int16, k), make([]int16, k*turboStates)
	gam, beta := make([]int16, k*turboStates), make([]int16, k*turboStates)
	sisoI16(ls, lp, la, wantExt, wantAlpha, k)
	sisoI16AVX2(ls, lp, la, ext, alpha, gam, beta, k)
	for i := range alpha {
		if alpha[i] != wantAlpha[i] {
			t.Fatalf("K=%d: alpha step %d state %d = %d, sisoI16 %d", k, i/turboStates, i%turboStates, alpha[i], wantAlpha[i])
		}
	}
	for i := range ext {
		if ext[i] != wantExt[i] {
			t.Fatalf("K=%d: ext step %d = %d, sisoI16 %d", k, i, ext[i], wantExt[i])
		}
	}
}

// checkDecodeTwin decodes one block's float streams on a TurboDecoder with
// and without the AVX2 path and fails unless the decoded bits and the
// iterations agree.
func checkDecodeTwin(t *testing.T, dec *TurboDecoder, l0, l1, l2 []float32, maxIter int) {
	t.Helper()
	k := len(l0) - 4
	dec.MaxIterations, dec.EarlyCheck = maxIter, checkBlockCRC24B
	got, want := make([]byte, k), make([]byte, k)
	dec.vec = false
	wantIt, err := dec.Decode(want, l0, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	dec.vec = true
	it, err := dec.Decode(got, l0, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if it != wantIt || !bytes.Equal(got, want) {
		t.Fatalf("K=%d: AVX2 decode took %d iterations, pure Go %d; bits equal: %v", k, it, wantIt, bytes.Equal(got, want))
	}
}

func TestSISOI16AVX2MatchesGo(t *testing.T) {
	if !batchAsm {
		t.Skip("CPU without AVX2")
	}
	rng := rand.New(rand.NewSource(0x5150))
	for _, k := range []int{40, 48, 512, 1056, 2112, 6144} {
		for trial := 0; trial < 4; trial++ {
			for mode := uint8(0); mode < 3; mode++ {
				ls, lp, la := sisoInputs(rng, k, mode, nil)
				checkSISOTwin(t, k, ls, lp, la)
			}
		}
	}
	dec := NewTurboDecoder()
	for _, k := range []int{40, 1056, 6144} {
		for _, sigma := range []float64{0.6, 0.9, 1.3} {
			_, l0, l1, l2 := batchTestVectors(t, rng, k, 1, sigma)
			scaleStreams(float32(1+rng.Intn(40)), sigma > 1, l0, l1, l2)
			checkDecodeTwin(t, dec, l0[0], l1[0], l2[0], 6)
		}
	}
}

// FuzzSISOI16AVX2 fuzzes the state-parallel twin against sisoI16 on sampled
// legal K: one constituent pass in each input mode of sisoInputs, compared
// on ext and alpha, then a whole decode of noisy streams at a fuzzed scale,
// compared on the decoded bits and the iteration count.
func FuzzSISOI16AVX2(f *testing.F) {
	if !batchAsm {
		f.Skip("CPU without AVX2")
	}
	f.Add(int64(1), uint8(0), uint8(0), []byte{})
	f.Add(int64(2), uint8(187), uint8(1), []byte{0, 7, 127, 1, 0, 128})
	f.Add(int64(3), uint8(60), uint8(2), []byte{0xff, 0xff, 0x40})
	f.Add(int64(4), uint8(100), uint8(4), []byte{3, 3, 3, 9, 9, 9, 27, 27, 27})
	f.Add(int64(234), uint8(149), uint8(118), []byte("0"))
	dec := NewTurboDecoder()
	f.Fuzz(func(t *testing.T, seed int64, kSel, mode uint8, raw []byte) {
		k := validBlockSizes[int(kSel)%len(validBlockSizes)]
		rng := rand.New(rand.NewSource(seed))
		ls, lp, la := sisoInputs(rng, k, mode, raw)
		checkSISOTwin(t, k, ls, lp, la)

		_, l0, l1, l2 := batchTestVectors(t, rng, k, 1, 0.5+float64(mode%8)/8)
		scaleStreams(float32(1+int(mode)%64), mode&64 != 0, l0, l1, l2)
		checkDecodeTwin(t, dec, l0[0], l1[0], l2[0], 1+int(seed&7))
	})
}
