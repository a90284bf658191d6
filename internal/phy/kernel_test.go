package phy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestUnrolledTrellisMatchesTables pins sisoI16's hand-unrolled butterflies
// against the generated trellis tables: the unrolled code hard-codes these
// successor/branch-sign patterns, so if the tables ever change shape this
// must fail before any numeric test does. The gamma index ↦ sign convention
// is idx0→+g0, idx1→+g1, idx2→−g1, idx3→−g0 (with g0=(h+p)/2, g1=(h−p)/2).
func TestUnrolledTrellisMatchesTables(t *testing.T) {
	wantD0 := [turboStates]uint8{0, 4, 5, 1, 2, 6, 7, 3}
	wantD1 := [turboStates]uint8{4, 0, 1, 5, 6, 2, 3, 7}
	wantG0 := [turboStates]uint8{0, 0, 1, 1, 1, 1, 0, 0}
	wantG1 := [turboStates]uint8{3, 3, 2, 2, 2, 2, 3, 3}
	if nextD0 != wantD0 {
		t.Errorf("nextD0 = %v, unrolled kernel assumes %v", nextD0, wantD0)
	}
	if nextD1 != wantD1 {
		t.Errorf("nextD1 = %v, unrolled kernel assumes %v", nextD1, wantD1)
	}
	if gammaIdx0 != wantG0 {
		t.Errorf("gammaIdx0 = %v, unrolled kernel assumes %v", gammaIdx0, wantG0)
	}
	if gammaIdx1 != wantG1 {
		t.Errorf("gammaIdx1 = %v, unrolled kernel assumes %v", gammaIdx1, wantG1)
	}
	// Forward butterflies read predecessors; check those too.
	wantPredS := [turboStates][2]uint8{
		{0, 1}, {2, 3}, {4, 5}, {6, 7},
		{0, 1}, {2, 3}, {4, 5}, {6, 7},
	}
	wantPredG := [turboStates][2]uint8{
		{0, 3}, {2, 1}, {1, 2}, {3, 0},
		{3, 0}, {1, 2}, {2, 1}, {0, 3},
	}
	if predState != wantPredS {
		t.Errorf("predState = %v, unrolled kernel assumes %v", predState, wantPredS)
	}
	if predGamma != wantPredG {
		t.Errorf("predGamma = %v, unrolled kernel assumes %v", predGamma, wantPredG)
	}
}

func TestQuantizeLLR(t *testing.T) {
	cases := []struct {
		in   float32
		want int16
	}{
		{0, 0},
		{1, i16One},
		{-1, -i16One},
		{0.5, i16One / 2},
		{31.9, 2042}, // inside the ±32 range
		{100, i16LLRSat},
		{-100, -i16LLRSat},
		{1e4, i16LLRSat}, // filler-bit pin saturates cleanly
		{0.007, 0},       // below half an LSB rounds to zero
		{0.008, 1},       // above half an LSB rounds away from zero
		{-0.008, -1},
	}
	for _, c := range cases {
		if got := quantI16(c.in, 1); got != c.want {
			t.Errorf("quantI16(%v, 1) = %d, want %d", c.in, got, c.want)
		}
		if got := quantizeLLRRef(c.in); got != c.want {
			t.Errorf("quantizeLLRRef(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestLLRGain pins the ingest gain's arithmetic: nothing at or below the
// target, the power of two that lands the mean in (T/2, T] above it (exact
// powers of two of the target included), and no gain from garbage.
func TestLLRGain(t *testing.T) {
	fill := func(n int, v float32) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = v
			if i%2 == 1 {
				s[i] = -v
			}
		}
		return s
	}
	const T = i16GainTarget
	for _, c := range []struct {
		mean, want float32
	}{
		{0, 1}, {3, 1}, {T, 1},
		{T * 1.01, 0.5}, {2 * T, 0.5},
		{2*T + 1, 0.25}, {4 * T, 0.25}, {200, 1.0 / 16},
	} {
		if got := llrGain(fill(44, c.mean), fill(44, c.mean), fill(44, c.mean)); got != c.want {
			t.Errorf("mean |LLR| %v: gain %v, want %v", c.mean, got, c.want)
		}
	}
	if got := llrGain(fill(44, float32(math.NaN())), fill(44, 3), fill(44, 3)); got != 1 {
		t.Errorf("NaN input: gain %v, want 1", got)
	}
	if got := llrGain(nil, nil, nil); got != 1 {
		t.Errorf("empty block: gain %v, want 1", got)
	}
}

// TestIngestKnownBits checks what the ingest does with a block's known
// leading bits: whatever the caller stored there, they quantize to the
// saturation point and take no part in the gain — 20 pins of 1e4 ahead of
// a quiet block would otherwise read as a mean of 1500.
func TestIngestKnownBits(t *testing.T) {
	const k, known = 40, 20
	q, err := NewQPPInterleaver(k)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(pin float32, kn int) (ls1 []int16) {
		s := [3][]float32{make([]float32, k+4), make([]float32, k+4), make([]float32, k+4)}
		for i := 0; i < k+4; i++ {
			s[0][i], s[1][i], s[2][i] = 3, -3, 3
		}
		for i := 0; i < known; i++ {
			s[0][i] = pin
		}
		b := newI16Buffers()
		b.ingest(q, s[0], s[1], s[2], kn)
		return b.ls1[:k+3]
	}
	for _, pin := range []float32{fillerLLR, 5, -7, 0} {
		ls1 := ingest(pin, known)
		for i := 0; i < k; i++ {
			want := int16(3 * i16One) // gain 1: the observations average 3
			if i < known {
				want = i16LLRSat
			}
			if ls1[i] != want {
				t.Fatalf("pin %v: ls1[%d] = %d, want %d", pin, i, ls1[i], want)
			}
		}
	}
	// Not told about them, the ingest takes the pins for observations.
	if ls1 := ingest(fillerLLR, 0); ls1[known] == 3*i16One {
		t.Fatal("undeclared pins left the gain at 1")
	}
}

func TestTurboI16NoiseFreeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{40, 512, 1056, 6144} {
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
				t.Fatalf("K=%d: bit %d = %d, want %d", k, i, out[i], input[i])
			}
		}
	}
}

// TestTurboI16MatchesFloatHighSNR is the testing/quick property from the
// issue: at high SNR both kernels must produce identical hard decisions
// (both recover the transmitted block, quantization error notwithstanding).
func TestTurboI16MatchesFloatHighSNR(t *testing.T) {
	const k = 512
	enc := NewTurboEncoder()
	decF, decI := newFloatDecoder(), NewTurboDecoder()
	d0, d1, d2 := make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)
	outF, outI := make([]byte, k), make([]byte, k)

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		input := randBits(rng, k)
		if err := enc.Encode(d0, d1, d2, input); err != nil {
			t.Fatal(err)
		}
		// BPSK-style LLRs at ~7 dB: llr = 2y/σ², y = ±1 + σ·n.
		const sigma = 0.45
		noisy := func(bits []byte) []float32 {
			llr := make([]float32, len(bits))
			for i, b := range bits {
				y := 1 - 2*float64(b) + sigma*rng.NormFloat64()
				llr[i] = float32(2 * y / (sigma * sigma))
			}
			return llr
		}
		l0, l1, l2 := noisy(d0), noisy(d1), noisy(d2)
		if _, err := decF.Decode(outF, l0, l1, l2); err != nil {
			t.Fatal(err)
		}
		if _, err := decI.Decode(outI, l0, l1, l2); err != nil {
			t.Fatal(err)
		}
		for i := range outF {
			if outF[i] != outI[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTurboI16DecodeNoAlloc(t *testing.T) {
	const k = 512
	enc := NewTurboEncoder()
	dec := NewTurboDecoder()
	rng := rand.New(rand.NewSource(26))
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
		t.Fatalf("int16 Decode allocates %v times per call; hot path must be allocation-free", allocs)
	}
}

// kernelBLER is one kernel's outcome over a seeded sequence of transport
// blocks: per-block failure and turbo iteration count.
type kernelBLER struct {
	failed []bool
	iters  []int
}

func (r kernelBLER) bler() float64 {
	n := 0
	for _, f := range r.failed {
		if f {
			n++
		}
	}
	return float64(n) / float64(len(r.failed))
}

// measureKernelBLER is measureBLER with an explicit turbo stage — the
// default's or the float32 reference's — and per-block outcomes; the same
// seed gives every stage the same payloads and noise.
func measureKernelBLER(t *testing.T, mcs MCS, nprb int, snrDB float64, trials int, seed int64, turbo refTurbo) kernelBLER {
	t.Helper()
	proc, err := newTBProc(mcs, nprb, pipeline{turbo: turbo})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ch := NewAWGNChannel(snrDB, seed+1)
	res := kernelBLER{failed: make([]bool, trials), iters: make([]int, trials)}
	rx := make([]complex128, proc.NumSymbols())
	for i := 0; i < trials; i++ {
		payload := randBits(rng, proc.TransportBlockSize())
		syms, err := proc.Encode(payload, uint16(i+1), 7, uint8(i%10), 0)
		if err != nil {
			t.Fatal(err)
		}
		copy(rx, syms)
		ch.Apply(rx)
		if _, err := proc.Decode(rx, ch.N0(), uint16(i+1), 7, uint8(i%10), 0, nil); err != nil {
			if !errors.Is(err, ErrCRC) {
				t.Fatal(err)
			}
			res.failed[i] = true
		}
		res.iters[i] = proc.Timings.TurboIterations
	}
	return res
}

// TestTurboI16BLERParity holds the int16 kernel to the float32 curve in
// the steepest part of the waterfall (op+0.5 dB at 6 PRB, where the BLER
// moves fastest per dB and a quantization penalty would be most visible),
// under identical payloads and channel noise. Mid-waterfall about one block
// in ten decodes under one kernel only, either way round, so the test is on
// the asymmetry of those discordant blocks: a kernel that is systematically
// worse loses many more than it wins. At 6 PRB these blocks' mean |LLR| is
// below the ingest-gain threshold, so this is the un-scaled quantizer;
// TestI16BLERParityHighSNR covers the scaled one.
func TestTurboI16BLERParity(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine sweep: the race detector has nothing to check; the race-free phy CI step runs it")
	}
	if testing.Short() {
		t.Skip("BLER measurement in -short mode")
	}
	const nprb = 6
	const trials = 150
	for _, mcs := range []MCS{4, 13, 22} {
		snr := mcs.OperatingSNR() + 0.5
		ri := measureKernelBLER(t, mcs, nprb, snr, trials, 400+int64(mcs), turboLockstep)
		rf := measureKernelBLER(t, mcs, nprb, snr, trials, 400+int64(mcs), turboFloat32)
		onlyI, onlyF := 0, 0
		for i := range ri.failed {
			switch {
			case ri.failed[i] && !rf.failed[i]:
				onlyI++
			case rf.failed[i] && !ri.failed[i]:
				onlyF++
			}
		}
		t.Logf("MCS %d @ %.2f dB: int16 BLER %.3f, float32 BLER %.3f; %d blocks fail int16 only, %d float32 only",
			mcs, snr, ri.bler(), rf.bler(), onlyI, onlyF)
		// Under parity the difference of the two counts has variance
		// onlyI+onlyF; three standard deviations is the alarm.
		if d := float64(onlyI - onlyF); d > 3*math.Sqrt(float64(onlyI+onlyF)) {
			t.Errorf("MCS %d: %d blocks fail under int16 only against %d under float32 only", mcs, onlyI, onlyF)
		}
	}
}

// TestI16BLERParityHighSNR is the fidelity contract of the default kernel
// where a fixed-point ingest is most exposed: MCS 28 at 25 PRB, 3 and 4 dB
// above the operating point, where 64-QAM LLRs average 50–65 — three to four
// times the old ±16 saturation, which cost 0.07 BLER here before the
// per-block gain. Over 300 seeded transport blocks per point the int16
// lockstep path must stay within 0.01 BLER of the float32 oracle, and
// within 3 % of its mean iteration count on the blocks both decode (a
// failed transport block stops early on the scalar float32 path and runs
// every lane to the cap in lockstep, so failures are not comparable).
func TestI16BLERParityHighSNR(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine sweep: the race detector has nothing to check; the race-free phy CI step runs it")
	}
	if testing.Short() {
		t.Skip("BLER measurement in -short mode")
	}
	const (
		mcs    = MCS(28)
		nprb   = 25
		trials = 300
	)
	for _, margin := range []float64{3, 4} {
		snr := mcs.OperatingSNR() + margin
		seed := 2800 + int64(margin)
		ri := measureKernelBLER(t, mcs, nprb, snr, trials, seed, turboLockstep)
		rf := measureKernelBLER(t, mcs, nprb, snr, trials, seed, turboFloat32)
		var itI, itF, both int
		for i := range ri.failed {
			if !ri.failed[i] && !rf.failed[i] {
				itI += ri.iters[i]
				itF += rf.iters[i]
				both++
			}
		}
		meanI, meanF := float64(itI)/float64(both), float64(itF)/float64(both)
		t.Logf("op+%.0f dB: BLER int16 %.3f float32 %.3f; iterations on %d common successes int16 %.2f float32 %.2f",
			margin, ri.bler(), rf.bler(), both, meanI, meanF)
		if ri.bler() > rf.bler()+0.01+1e-9 {
			t.Errorf("op+%.0f dB: int16 BLER %.3f more than 0.01 above float32 %.3f", margin, ri.bler(), rf.bler())
		}
		if meanI > 1.03*meanF || meanI < 0.97*meanF {
			t.Errorf("op+%.0f dB: int16 mean iterations %.2f not within 3%% of float32 %.2f", margin, meanI, meanF)
		}
	}
}

// TestTransportKernelI16 exercises the kernel through the full transport
// chain, scalar per block and in lockstep spans, and checks their
// bit-identity.
func TestTransportKernelI16(t *testing.T) {
	const nprb = 50
	const mcs = MCS(22) // segments into several code blocks at 50 PRB
	serial, err := newTBProc(mcs, nprb, pipeline{turbo: turboPerBlock})
	if err != nil {
		t.Fatal(err)
	}
	par, err := newTBProc(mcs, nprb, pipeline{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	ch := NewAWGNChannel(mcs.OperatingSNR()+3, 78)
	rx := make([]complex128, serial.NumSymbols())
	for trial := 0; trial < 5; trial++ {
		payload := randBits(rng, serial.TransportBlockSize())
		syms, err := serial.Encode(payload, 17, 7, uint8(trial), 0)
		if err != nil {
			t.Fatal(err)
		}
		copy(rx, syms)
		ch.Apply(rx)
		gotS, errS := serial.Decode(rx, ch.N0(), 17, 7, uint8(trial), 0, nil)
		gotP, errP := par.Decode(rx, ch.N0(), 17, 7, uint8(trial), 0, nil)
		if (errS == nil) != (errP == nil) {
			t.Fatalf("trial %d: scalar err=%v, lockstep err=%v", trial, errS, errP)
		}
		if errS != nil {
			if !errors.Is(errS, ErrCRC) {
				t.Fatal(errS)
			}
			continue
		}
		for i := range gotS {
			if gotS[i] != gotP[i] {
				t.Fatalf("trial %d: lockstep bit %d differs from scalar", trial, i)
			}
			if gotS[i] != payload[i] {
				t.Fatalf("trial %d: decoded bit %d differs from payload", trial, i)
			}
		}
	}
}
