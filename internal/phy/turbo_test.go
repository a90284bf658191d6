package phy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bitsToLLR maps bits to ideal noise-free LLRs (+v for 0, −v for 1).
func bitsToLLR(bits []byte, v float32) []float32 {
	llr := make([]float32, len(bits))
	for i, b := range bits {
		if b == 0 {
			llr[i] = v
		} else {
			llr[i] = -v
		}
	}
	return llr
}

func TestRSCTermination(t *testing.T) {
	// After the 3 tail steps the constituent trellis must reach state 0
	// from any data sequence, and runRSC's byte steps must emit the parity
	// and tail bits of a bit-serial pass over the tables.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 50; trial++ {
		input := randBits(rng, 40+rng.Intn(200))
		parity := make([]byte, len(input))
		var xt, zt [turboTail]byte
		runRSC(input, parity, &xt, &zt)
		// Re-run bit by bit to inspect the outputs and the final state.
		var s uint8
		for i, d := range input {
			if p := rscParityIn[s][d&1]; parity[i] != p {
				t.Fatalf("len %d: parity bit %d = %d, bit-serial %d", len(input), i, parity[i], p)
			}
			s = rscNext[s][(d&1)^rscFeedback[s]]
		}
		for i := 0; i < turboTail; i++ {
			if d := rscFeedback[s]; xt[i] != d || zt[i] != rscParityIn[s][d] {
				t.Fatalf("len %d: tail step %d = (%d, %d), bit-serial (%d, %d)", len(input), i, xt[i], zt[i], d, rscParityIn[s][d])
			}
			s = rscNext[s][0]
		}
		if s != 0 {
			t.Fatalf("trellis not terminated: final state %d", s)
		}
	}
}

func TestTurboEncodeDeterministic(t *testing.T) {
	enc := NewTurboEncoder()
	rng := rand.New(rand.NewSource(21))
	input := randBits(rng, 104)
	a0, a1, a2 := make([]byte, 108), make([]byte, 108), make([]byte, 108)
	b0, b1, b2 := make([]byte, 108), make([]byte, 108), make([]byte, 108)
	if err := enc.Encode(a0, a1, a2, input); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(b0, b1, b2, input); err != nil {
		t.Fatal(err)
	}
	for i := range a0 {
		if a0[i] != b0[i] || a1[i] != b1[i] || a2[i] != b2[i] {
			t.Fatalf("nondeterministic encode at %d", i)
		}
	}
	// Systematic part must equal the input.
	for i := range input {
		if a0[i] != input[i] {
			t.Fatalf("systematic stream differs from input at %d", i)
		}
	}
}

func TestTurboNoiseFreeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, k := range []int{40, 104, 512, 2048, 6144} {
		enc := NewTurboEncoder()
		dec := NewTurboDecoder()
		input := randBits(rng, k)
		d0, d1, d2 := make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)
		if err := enc.Encode(d0, d1, d2, input); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, k)
		if _, err := dec.Decode(out, bitsToLLR(d0, 4), bitsToLLR(d1, 4), bitsToLLR(d2, 4)); err != nil {
			t.Fatal(err)
		}
		for i := range input {
			if out[i] != input[i] {
				t.Fatalf("K=%d: noise-free decode wrong at bit %d", k, i)
			}
		}
	}
}

func TestTurboAllZeros(t *testing.T) {
	const k = 256
	enc := NewTurboEncoder()
	dec := NewTurboDecoder()
	input := make([]byte, k)
	d0, d1, d2 := make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)
	if err := enc.Encode(d0, d1, d2, input); err != nil {
		t.Fatal(err)
	}
	// The all-zero input must produce the all-zero codeword (linear code,
	// zero state start/end).
	for i := range d0 {
		if d0[i] != 0 || d1[i] != 0 || d2[i] != 0 {
			t.Fatalf("all-zero input produced nonzero coded bit at %d", i)
		}
	}
	out := make([]byte, k)
	if _, err := dec.Decode(out, bitsToLLR(d0, 4), bitsToLLR(d1, 4), bitsToLLR(d2, 4)); err != nil {
		t.Fatal(err)
	}
	for i, b := range out {
		if b != 0 {
			t.Fatalf("bit %d decoded as 1", i)
		}
	}
}

func TestTurboWithAWGN(t *testing.T) {
	// BPSK over AWGN at a comfortable Eb/N0 for rate-1/3 turbo: decoding
	// must succeed with soft LLRs 4·y/N0.
	const k = 1024
	rng := rand.New(rand.NewSource(23))
	enc := NewTurboEncoder()
	dec := NewTurboDecoder()
	input := randBits(rng, k)
	d0, d1, d2 := make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)
	if err := enc.Encode(d0, d1, d2, input); err != nil {
		t.Fatal(err)
	}
	const snrDB = 1.0 // Es/N0 for rate-1/3 BPSK; well above turbo threshold
	n0 := 1.0
	sigma := 0.707 // per-dim for complex; use real BPSK: sigma² = N0/2
	_ = snrDB
	noisy := func(bits []byte) []float32 {
		llr := make([]float32, len(bits))
		for i, b := range bits {
			x := 1.0
			if b == 1 {
				x = -1
			}
			y := x + rng.NormFloat64()*sigma
			llr[i] = float32(4 * y / n0)
		}
		return llr
	}
	out := make([]byte, k)
	if _, err := dec.Decode(out, noisy(d0), noisy(d1), noisy(d2)); err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range input {
		if out[i] != input[i] {
			errs++
		}
	}
	if errs != 0 {
		t.Fatalf("%d bit errors at high SNR", errs)
	}
}

func TestTurboEarlyTermination(t *testing.T) {
	const k = 512
	enc := NewTurboEncoder()
	dec := NewTurboDecoder()
	dec.MaxIterations = 8
	rng := rand.New(rand.NewSource(24))
	payload := randBits(rng, k-24)
	input := AppendCRC24A(nil, payload)
	d0, d1, d2 := make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)
	if err := enc.Encode(d0, d1, d2, input); err != nil {
		t.Fatal(err)
	}
	dec.EarlyCheck = func(bits []byte) bool {
		_, ok := CheckCRC24A(bits)
		return ok
	}
	out := make([]byte, k)
	iters, err := dec.Decode(out, bitsToLLR(d0, 4), bitsToLLR(d1, 4), bitsToLLR(d2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if iters >= 8 {
		t.Fatalf("noise-free decode used all %d iterations; early stop broken", iters)
	}
}

func TestTurboQuickRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := validBlockSizes[rng.Intn(40)] // sizes up to ~360 keep it fast
		enc, dec := NewTurboEncoder(), NewTurboDecoder()
		input := randBits(rng, k)
		d0, d1, d2 := make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)
		if err := enc.Encode(d0, d1, d2, input); err != nil {
			return false
		}
		out := make([]byte, k)
		if _, err := dec.Decode(out, bitsToLLR(d0, 2), bitsToLLR(d1, 2), bitsToLLR(d2, 2)); err != nil {
			return false
		}
		for i := range input {
			if out[i] != input[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTurboBadInputs(t *testing.T) {
	enc := NewTurboEncoder()
	dec := NewTurboDecoder()
	if err := enc.Encode(make([]byte, 44), make([]byte, 44), make([]byte, 44), make([]byte, 39)); err == nil {
		t.Fatal("wrong input length accepted")
	}
	if err := enc.Encode(make([]byte, 40), make([]byte, 44), make([]byte, 44), make([]byte, 40)); err == nil {
		t.Fatal("wrong stream length accepted")
	}
	if _, err := dec.Decode(make([]byte, 40), make([]float32, 40), make([]float32, 44), make([]float32, 44)); err == nil {
		t.Fatal("wrong LLR length accepted")
	}
	if err := enc.Encode(make([]byte, 43), make([]byte, 43), make([]byte, 43), make([]byte, 39)); err == nil {
		t.Fatal("illegal K accepted by encoder")
	}
	if _, err := dec.Decode(make([]byte, 39), make([]float32, 43), make([]float32, 43), make([]float32, 43)); err == nil {
		t.Fatal("illegal K accepted by decoder")
	}
}

func TestTurboDecodeNoAlloc(t *testing.T) {
	const k = 512
	enc := NewTurboEncoder()
	dec := NewTurboDecoder()
	rng := rand.New(rand.NewSource(25))
	input := randBits(rng, k)
	d0, d1, d2 := make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)
	if err := enc.Encode(d0, d1, d2, input); err != nil {
		t.Fatal(err)
	}
	l0, l1, l2 := bitsToLLR(d0, 4), bitsToLLR(d1, 4), bitsToLLR(d2, 4)
	out := make([]byte, k)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := dec.Decode(out, l0, l1, l2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Decode allocates %v times per call; hot path must be allocation-free", allocs)
	}
}
