package phy

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchTestVectors encodes n CRC-24B-protected blocks of size k and returns
// noisy LLR streams (sigma=0 means noise-free) plus the transmitted blocks.
func batchTestVectors(t testing.TB, rng *rand.Rand, k, n int, sigma float64) (blocks [][]byte, l0, l1, l2 [][]float32) {
	t.Helper()
	enc := NewTurboEncoder()
	d0, d1, d2 := make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)
	noisy := func(bits []byte) []float32 {
		llr := make([]float32, len(bits))
		for i, b := range bits {
			y := 1 - 2*float64(b)
			if sigma > 0 {
				y += sigma * rng.NormFloat64()
				llr[i] = float32(2 * y / (sigma * sigma))
			} else {
				llr[i] = float32(8 * y)
			}
		}
		return llr
	}
	for b := 0; b < n; b++ {
		input := AppendCRC24B(nil, randBits(rng, k-24))
		if err := enc.Encode(d0, d1, d2, input); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, input)
		l0 = append(l0, noisy(d0))
		l1 = append(l1, noisy(d1))
		l2 = append(l2, noisy(d2))
	}
	return blocks, l0, l1, l2
}

// scaleStreams multiplies every LLR of the lanes by c, and — when puncture
// is set — first zeroes two parity LLRs in three, the shape of a high-rate
// block: the mean that sets the ingest gain then sits well below the
// surviving magnitudes, which saturate after scaling.
func scaleStreams(c float32, puncture bool, ls ...[][]float32) {
	for si, l := range ls {
		for _, lane := range l {
			for i := range lane {
				if puncture && si > 0 && i%3 != 0 {
					lane[i] = 0
				}
				lane[i] *= c
			}
		}
	}
}

// decodeScalarOracle runs the scalar int16 kernel over each lane
// independently under the same check, returning outputs, summed iterations,
// and the failure mask — the reference the batched kernel must match bit
// for bit.
func decodeScalarOracle(t testing.TB, k, maxIter int, l0, l1, l2 [][]float32, check func([]byte) bool) (outs [][]byte, iters int, failed uint64) {
	t.Helper()
	dec, err := NewTurboDecoderKernel(KernelInt16)
	if err != nil {
		t.Fatal(err)
	}
	dec.MaxIterations = maxIter
	dec.EarlyCheck = check
	for b := range l0 {
		out := make([]byte, k)
		n, err := dec.Decode(out, l0[b], l1[b], l2[b])
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
		iters += n
		if check != nil && !check(out) {
			failed |= 1 << uint(b)
		}
	}
	return outs, iters, failed
}

// TestBatchDecoderMatchesScalarOracle is the lockstep bit-exactness
// property: across block sizes, widths, ragged batches, noise levels, and
// iteration budgets, every lane of the batched kernel must produce exactly
// the scalar int16 kernel's output, consume the same per-lane iteration
// count (summed), and report the same failure mask.
func TestBatchDecoderMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	cases := []struct {
		k, width, n int
		sigma       float64
		maxIter     int
		check       bool
		scale       float32 // LLR multiplier: past ~5 the ingest gain is active
		puncture    bool
	}{
		{40, 2, 2, 0, 8, true, 1, false},
		{40, 8, 5, 0.9, 8, true, 1, false}, // ragged, noisy enough for iteration spread
		{64, 4, 4, 0.8, 8, true, 1, false}, // full batch under noise
		{512, 8, 8, 0.75, 8, true, 1, false},
		{512, 8, 7, 0.8, 8, true, 64, false}, // mean |LLR| ≈ 200: gain 1/16
		{512, 8, 8, 0.9, 8, false, 40, true}, // punctured + scaled: saturated LLRs, extrinsics run to the clamp
		{1056, 5, 5, 0.8, 6, true, 17, true}, // the same through the pure-Go lanes
		{512, 8, 3, 1.2, 4, true, 1, false},  // heavy noise: some lanes must fail
		{512, 3, 3, 0.8, 8, false, 1, false}, // no early check: fixed iteration count
		{1056, 4, 4, 0.7, 6, true, 1, false},
		{6144, 8, 3, 0.7, 3, false, 25, true}, // the production shape: K max, ragged AVX2 pass
	}
	if testing.Short() {
		cases = cases[:7]
	}
	for _, c := range cases {
		_, l0, l1, l2 := batchTestVectors(t, rng, c.k, c.n, c.sigma)
		scaleStreams(c.scale, c.puncture, l0, l1, l2)
		var check func([]byte) bool
		if c.check {
			check = checkBlockCRC24B
		}
		wantOuts, wantIters, wantFailed := decodeScalarOracle(t, c.k, c.maxIter, l0, l1, l2, check)

		bd, err := NewBatchDecoderI16(c.width)
		if err != nil {
			t.Fatal(err)
		}
		bd.MaxIterations = c.maxIter
		got := make([][]byte, c.n)
		for b := range got {
			got[b] = make([]byte, c.k)
		}
		iters, failed, err := bd.Decode(got, l0, l1, l2, nil, check)
		if err != nil {
			t.Fatal(err)
		}
		if failed != wantFailed {
			t.Errorf("K=%d w=%d n=%d σ=%.2f: failed mask %#x, scalar oracle %#x", c.k, c.width, c.n, c.sigma, failed, wantFailed)
		}
		if iters != wantIters {
			t.Errorf("K=%d w=%d n=%d σ=%.2f: %d total iterations, scalar oracle %d", c.k, c.width, c.n, c.sigma, iters, wantIters)
		}
		for b := range got {
			for i := range got[b] {
				if got[b][i] != wantOuts[b][i] {
					t.Fatalf("K=%d w=%d n=%d σ=%.2f: lane %d bit %d = %d, scalar oracle %d", c.k, c.width, c.n, c.sigma, b, i, got[b][i], wantOuts[b][i])
				}
			}
		}
	}
}

// TestI16GainScaleInvariance pins the ingest gain's defining property: it
// is a power of two derived from the block's own mean, so scaling a block's
// LLRs by any power of two changes neither the quantized streams nor,
// therefore, anything downstream — while the gain is active (a block whose
// scaled mean falls below the threshold is not scaled back up). For seeded
// noisy blocks with a mean |LLR| near 250, every c = 2^-3 … 2^6 must give
// bit-identical hard decisions and iteration counts, through the scalar
// kernel and through the lockstep kernel at an AVX2-eligible and a pure-Go
// width.
func TestI16GainScaleInvariance(t *testing.T) {
	const n, maxIter = 5, 8
	rng := rand.New(rand.NewSource(1616))
	for _, k := range []int{512, 1056} {
		_, b0, b1, b2 := batchTestVectors(t, rng, k, n, 1.05)
		scaleStreams(128, false, b0, b1, b2)
		wantOuts, wantIters, wantFailed := decodeScalarOracle(t, k, maxIter, b0, b1, b2, checkBlockCRC24B)
		if wantIters <= n {
			t.Fatalf("K=%d: every block decoded in one iteration; the vectors exercise nothing", k)
		}
		clone := func(l [][]float32) [][]float32 {
			c := make([][]float32, len(l))
			for i := range l {
				c[i] = append([]float32(nil), l[i]...)
			}
			return c
		}
		for e := -3; e <= 6; e++ {
			c := float32(math.Ldexp(1, e))
			l0, l1, l2 := clone(b0), clone(b1), clone(b2)
			scaleStreams(c, false, l0, l1, l2)
			for b := 0; b < n; b++ {
				g, g0 := llrGain(l0[b], l1[b], l2[b]), llrGain(b0[b], b1[b], b2[b])
				if g >= 1 || g*c != g0 {
					t.Fatalf("K=%d c=2^%d lane %d: gain %v, unscaled gain %v — not active, or not covariant", k, e, b, g, g0)
				}
			}
			outs, iters, failed := decodeScalarOracle(t, k, maxIter, l0, l1, l2, checkBlockCRC24B)
			if iters != wantIters || failed != wantFailed {
				t.Fatalf("K=%d c=2^%d scalar: (iters,failed)=(%d,%#x), unscaled (%d,%#x)", k, e, iters, failed, wantIters, wantFailed)
			}
			for b := range outs {
				if !bytes.Equal(outs[b], wantOuts[b]) {
					t.Fatalf("K=%d c=2^%d scalar: lane %d decisions differ from the unscaled block's", k, e, b)
				}
			}
			for _, w := range []int{8, 5} {
				bd, err := NewBatchDecoderI16(w)
				if err != nil {
					t.Fatal(err)
				}
				bd.MaxIterations = maxIter
				got := make([][]byte, n)
				for b := range got {
					got[b] = make([]byte, k)
				}
				iters, failed, err := bd.Decode(got, l0, l1, l2, nil, checkBlockCRC24B)
				if err != nil {
					t.Fatal(err)
				}
				if iters != wantIters || failed != wantFailed {
					t.Fatalf("K=%d c=2^%d width %d: (iters,failed)=(%d,%#x), unscaled (%d,%#x)", k, e, w, iters, failed, wantIters, wantFailed)
				}
				for b := range got {
					if failed&(1<<uint(b)) == 0 && !bytes.Equal(got[b], wantOuts[b]) {
						t.Fatalf("K=%d c=2^%d width %d: lane %d decisions differ from the unscaled block's", k, e, w, b)
					}
				}
			}
		}
	}
}

func TestBatchDecoderValidation(t *testing.T) {
	if _, err := NewBatchDecoderI16(1); !errors.Is(err, ErrBadParameter) {
		t.Errorf("width 1 = %v, want ErrBadParameter", err)
	}
	if _, err := NewBatchDecoderI16(65); !errors.Is(err, ErrBadParameter) {
		t.Errorf("width 65 = %v, want ErrBadParameter", err)
	}
	bd, err := NewBatchDecoderI16(4)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Width() != 4 {
		t.Errorf("Width()=%d", bd.Width())
	}
	mk := func(n, l int) [][]float32 {
		s := make([][]float32, n)
		for i := range s {
			s[i] = make([]float32, l)
		}
		return s
	}
	blocks := [][]byte{make([]byte, 512), make([]byte, 512)}
	if _, _, err := bd.Decode(blocks[:0], nil, nil, nil, nil, nil); err != nil {
		t.Errorf("empty batch = %v, want nil", err)
	}
	five := make([][]byte, 5)
	for i := range five {
		five[i] = make([]byte, 512)
	}
	if _, _, err := bd.Decode(five, mk(5, 516), mk(5, 516), mk(5, 516), nil, nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("overwide batch = %v, want ErrBadParameter", err)
	}
	if _, _, err := bd.Decode(blocks, mk(1, 516), mk(2, 516), mk(2, 516), nil, nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("stream count mismatch = %v, want ErrBadParameter", err)
	}
	if _, _, err := bd.Decode(blocks, mk(2, 515), mk(2, 516), mk(2, 516), nil, nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("stream length mismatch = %v, want ErrBadParameter", err)
	}
	// The first block fixes the call's K: an illegal size is rejected, and
	// so is a later lane of another size.
	short := [][]byte{make([]byte, 511), make([]byte, 512)}
	if _, _, err := bd.Decode(short, mk(2, 516), mk(2, 516), mk(2, 516), nil, nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("illegal block size = %v, want ErrBadParameter", err)
	}
	mixed := [][]byte{make([]byte, 512), make([]byte, 504)}
	if _, _, err := bd.Decode(mixed, mk(2, 516), mk(2, 516), mk(2, 516), nil, nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("mixed block sizes = %v, want ErrBadParameter", err)
	}
	// The span decoder a processor drives the batch decoder through checks
	// the code blocks' stream shapes before it cuts them into spans.
	sd, err := newSpanDecoder(DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	cbOf := func(soft [][]float32, known []int) *codeBlocks {
		return &codeBlocks{
			out: blocks, soft: soft, known: known,
			check: []func([]byte) bool{checkBlockCRC24B, checkBlockCRC24B}, tb: []int{0, 0},
			end: []int{2}, iters: []int{0}, ok: []bool{true},
		}
	}
	if err := sd.decode(cbOf(mk(1, 3*516), []int{0, 0}), nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("span decoder stream count mismatch = %v, want ErrBadParameter", err)
	}
	if err := sd.decode(cbOf(mk(2, 3*516-1), []int{0, 0}), nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("span decoder stream length mismatch = %v, want ErrBadParameter", err)
	}
	if err := sd.decode(cbOf(mk(2, 3*516), []int{0}), nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("span decoder known-bit count mismatch = %v, want ErrBadParameter", err)
	}
}

func TestBatchDecoderNoAlloc(t *testing.T) {
	const k, w = 512, 8
	rng := rand.New(rand.NewSource(55))
	_, l0, l1, l2 := batchTestVectors(t, rng, k, w, 0.8)
	bd, err := NewBatchDecoderI16(w)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, w)
	for b := range got {
		got[b] = make([]byte, k)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := bd.Decode(got, l0, l1, l2, nil, checkBlockCRC24B); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("batched Decode allocates %v times per call; hot path must be allocation-free", allocs)
	}
}

// FuzzBatchedKernel fuzzes the lockstep bit-exactness property: arbitrary
// LLR perturbations, batch shapes, and iteration budgets must never produce
// a lane that differs from the scalar int16 oracle.
func FuzzBatchedKernel(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(5), uint8(8), uint8(0), []byte{0, 1, 2, 3})
	f.Add(int64(2), uint8(2), uint8(2), uint8(1), uint8(13), []byte{255, 128})
	f.Add(int64(3), uint8(5), uint8(3), uint8(4), uint8(6), []byte{7})
	f.Add(int64(4), uint8(6), uint8(7), uint8(7), uint8(15), []byte{200, 3, 90})
	f.Fuzz(func(t *testing.T, seed int64, width, nLanes, maxIter, scale uint8, perturb []byte) {
		const k = 40
		w := 2 + int(width)%7  // 2..8
		n := 1 + int(nLanes)%w // 1..w (ragged allowed)
		mi := 1 + int(maxIter)%8
		rng := rand.New(rand.NewSource(seed))
		_, l0, l1, l2 := batchTestVectors(t, rng, k, n, 1.0)
		// Scale the lanes to a mean |LLR| of 2 … 200 (past 16 the ingest
		// gain is active), every other scale with the parity streams
		// punctured so that the surviving LLRs saturate.
		scaleStreams(float32(math.Pow(100, float64(scale%16)/15)), scale&16 != 0, l0, l1, l2)
		// Inject fuzz-controlled perturbations so the corpus explores LLR
		// patterns the Gaussian draw never hits (saturation, exact ties).
		for i, p := range perturb {
			lane := i % n
			pos := int(p) % (k + 4)
			l0[lane][pos] = float32(int(p)-128) / 4
			l1[lane][(pos+1)%(k+4)] = float32(int(p) - 100)
			l2[lane][(pos+2)%(k+4)] = -float32(int(p)) / 8
		}
		wantOuts, wantIters, wantFailed := decodeScalarOracle(t, k, mi, l0, l1, l2, checkBlockCRC24B)

		bd, err := NewBatchDecoderI16(w)
		if err != nil {
			t.Fatal(err)
		}
		bd.MaxIterations = mi
		got := make([][]byte, n)
		for b := range got {
			got[b] = make([]byte, k)
		}
		iters, failed, err := bd.Decode(got, l0, l1, l2, nil, checkBlockCRC24B)
		if err != nil {
			t.Fatal(err)
		}
		if failed != wantFailed || iters != wantIters {
			t.Fatalf("w=%d n=%d mi=%d: (iters,failed)=(%d,%#x), scalar oracle (%d,%#x)", w, n, mi, iters, failed, wantIters, wantFailed)
		}
		for b := range got {
			for i := range got[b] {
				if got[b][i] != wantOuts[b][i] {
					t.Fatalf("w=%d n=%d mi=%d: lane %d bit %d = %d, scalar oracle %d", w, n, mi, b, i, got[b][i], wantOuts[b][i])
				}
			}
		}
	})
}

// BenchmarkBatchVsScalarI16 measures the turbo cost of a span at a fixed
// iteration budget (4, no early exit) across block sizes: the scalar
// decoder on one block (K<k>/scalar) against the width-8 lockstep decoder
// carrying 1, 2 or 8 blocks (K<k>/lanes<n>). ns/op is a whole span, so
// lanes8 over 8 is the per-block cost of a full span, lanes1 is what a lone
// block costs on the lockstep decoder, and the K at which lanes1 overtakes
// scalar is spanDecoder's loneLaneMinK. BenchmarkFullDecode's batch1 column
// shows the lockstep gain end to end.
func BenchmarkBatchVsScalarI16(b *testing.B) {
	for _, k := range []int{208, 1056, 2112, 3136, 6144} {
		rng := rand.New(rand.NewSource(17))
		_, l0, l1, l2 := batchTestVectors(b, rng, k, 8, 0.8)
		out := make([]byte, k)
		b.Run(fmt.Sprintf("K%d/scalar", k), func(b *testing.B) {
			dec, err := NewTurboDecoderKernel(KernelInt16)
			if err != nil {
				b.Fatal(err)
			}
			dec.MaxIterations = 4
			b.SetBytes(int64(k))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(out, l0[i%8], l1[i%8], l2[i%8]); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, n := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("K%d/lanes%d", k, n), func(b *testing.B) {
				bd, err := NewBatchDecoderI16(8)
				if err != nil {
					b.Fatal(err)
				}
				bd.MaxIterations = 4
				got := make([][]byte, n)
				for i := range got {
					got[i] = make([]byte, k)
				}
				b.SetBytes(int64(k * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := bd.Decode(got, l0[:n], l1[:n], l2[:n], nil, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
