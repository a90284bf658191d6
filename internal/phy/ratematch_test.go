package phy

import (
	"math/rand"
	"testing"
)

func TestRateMatchFullBufferRecoversAllBits(t *testing.T) {
	// Selecting exactly the buffer length must emit every non-null position
	// once, so soft-dematching ideal LLRs reproduces each stream.
	const k = 104
	rm, err := NewRateMatcher(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	d0, d1, d2 := randBits(rng, k+4), randBits(rng, k+4), randBits(rng, k+4)
	e := 3 * (k + 4)
	coded, err := rm.Match(nil, d0, d1, d2, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(coded) != e {
		t.Fatalf("emitted %d bits, want %d", len(coded), e)
	}
	ld0 := make([]float32, k+4)
	ld1 := make([]float32, k+4)
	ld2 := make([]float32, k+4)
	if err := rm.SoftDematch(ld0, ld1, ld2, bitsToLLR(coded, 1), 0); err != nil {
		t.Fatal(err)
	}
	check := func(name string, bits []byte, llr []float32) {
		for i := range bits {
			want := float32(1)
			if bits[i] == 1 {
				want = -1
			}
			if llr[i] != want {
				t.Fatalf("%s[%d] = %v, want %v", name, i, llr[i], want)
			}
		}
	}
	check("d0", d0, ld0)
	check("d1", d1, ld1)
	check("d2", d2, ld2)
}

func TestRateMatchPuncturedRoundtripThroughTurbo(t *testing.T) {
	// Puncture to 60% of the buffer and confirm the turbo decoder still
	// recovers the data at moderate LLR confidence — the whole point of
	// rate matching.
	const k = 512
	rm, _ := NewRateMatcher(k)
	enc := NewTurboEncoder()
	dec := NewTurboDecoder()
	rng := rand.New(rand.NewSource(31))
	input := randBits(rng, k)
	d0, d1, d2 := make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)
	if err := enc.Encode(d0, d1, d2, input); err != nil {
		t.Fatal(err)
	}
	e := 3 * (k + 4) * 6 / 10
	coded, err := rm.Match(nil, d0, d1, d2, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	ld0, ld1, ld2 := make([]float32, k+4), make([]float32, k+4), make([]float32, k+4)
	if err := rm.SoftDematch(ld0, ld1, ld2, bitsToLLR(coded, 3), 0); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, k)
	if _, err := dec.Decode(out, ld0, ld1, ld2); err != nil {
		t.Fatal(err)
	}
	for i := range input {
		if out[i] != input[i] {
			t.Fatalf("punctured decode wrong at %d", i)
		}
	}
}

func TestRateMatchRepetitionAccumulates(t *testing.T) {
	// e > buffer length wraps: positions covered twice must accumulate LLR.
	const k = 40
	rm, _ := NewRateMatcher(k)
	rng := rand.New(rand.NewSource(32))
	d0, d1, d2 := randBits(rng, k+4), randBits(rng, k+4), randBits(rng, k+4)
	e := 2 * 3 * (k + 4)
	coded, err := rm.Match(nil, d0, d1, d2, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	ld0, ld1, ld2 := make([]float32, k+4), make([]float32, k+4), make([]float32, k+4)
	if err := rm.SoftDematch(ld0, ld1, ld2, bitsToLLR(coded, 1), 0); err != nil {
		t.Fatal(err)
	}
	for i := range ld0 {
		mag := ld0[i]
		if mag < 0 {
			mag = -mag
		}
		if mag != 2 {
			t.Fatalf("d0[%d] |LLR| = %v, want 2 after double coverage", i, mag)
		}
	}
}

func TestRateMatchRVOffsetsDiffer(t *testing.T) {
	const k = 256
	rm, _ := NewRateMatcher(k)
	rng := rand.New(rand.NewSource(33))
	d0, d1, d2 := randBits(rng, k+4), randBits(rng, k+4), randBits(rng, k+4)
	e := k
	var outs [4][]byte
	for rv := 0; rv < 4; rv++ {
		var err error
		outs[rv], err = rm.Match(nil, d0, d1, d2, e, rv)
		if err != nil {
			t.Fatal(err)
		}
	}
	same := 0
	for i := 0; i < e; i++ {
		if outs[0][i] == outs[2][i] {
			same++
		}
	}
	if same == e {
		t.Fatal("rv=0 and rv=2 selected identical bits; redundancy versions not distinct")
	}
}

func TestRateMatchHARQCombining(t *testing.T) {
	// Two transmissions at different RVs accumulated into one soft buffer
	// must decode where a single heavily-punctured one might not; at
	// minimum, combined magnitudes grow.
	const k = 104
	rm, _ := NewRateMatcher(k)
	rng := rand.New(rand.NewSource(34))
	d0, d1, d2 := randBits(rng, k+4), randBits(rng, k+4), randBits(rng, k+4)
	e := (k + 4) // heavy puncturing
	ld0, ld1, ld2 := make([]float32, k+4), make([]float32, k+4), make([]float32, k+4)
	for rv := 0; rv < 2; rv++ {
		coded, err := rm.Match(nil, d0, d1, d2, e, rv)
		if err != nil {
			t.Fatal(err)
		}
		if err := rm.SoftDematch(ld0, ld1, ld2, bitsToLLR(coded, 1), rv); err != nil {
			t.Fatal(err)
		}
	}
	var total float32
	for i := range ld0 {
		abs := func(v float32) float32 {
			if v < 0 {
				return -v
			}
			return v
		}
		total += abs(ld0[i]) + abs(ld1[i]) + abs(ld2[i])
	}
	if total < float32(2*e)*0.99 {
		t.Fatalf("combined LLR mass %v below the 2·e transmitted", total)
	}
}

func TestRateMatchErrors(t *testing.T) {
	rm, _ := NewRateMatcher(40)
	if _, err := rm.Match(nil, make([]byte, 40), make([]byte, 44), make([]byte, 44), 10, 0); err == nil {
		t.Fatal("wrong stream length accepted")
	}
	if _, err := rm.Match(nil, make([]byte, 44), make([]byte, 44), make([]byte, 44), 0, 0); err == nil {
		t.Fatal("e=0 accepted")
	}
	if _, err := rm.Match(nil, make([]byte, 44), make([]byte, 44), make([]byte, 44), 10, 4); err == nil {
		t.Fatal("rv=4 accepted")
	}
	if err := rm.SoftDematch(make([]float32, 44), make([]float32, 44), make([]float32, 44), nil, 5); err == nil {
		t.Fatal("rv=5 accepted by dematch")
	}
	if _, err := NewRateMatcher(39); err == nil {
		t.Fatal("illegal K accepted")
	}
}
