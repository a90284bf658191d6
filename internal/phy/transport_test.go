package phy

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func roundtripOnce(t *testing.T, mcs MCS, nprb int, snrDB float64, seed int64) error {
	t.Helper()
	p, err := newTBProc(mcs, nprb, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	payload := randBits(rng, p.TransportBlockSize())
	syms, err := p.Encode(payload, 17, 101, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := append([]complex128(nil), syms...)
	ch := NewAWGNChannel(snrDB, seed)
	ch.Apply(rx)
	out, err := p.Decode(rx, ch.N0(), 17, 101, 4, 0, nil)
	if err != nil {
		return err
	}
	for i := range payload {
		if out[i] != payload[i] {
			t.Fatalf("MCS %d nprb=%d: payload mismatch at %d", mcs, nprb, i)
		}
	}
	return nil
}

func TestTransportRoundtripAcrossMCS(t *testing.T) {
	// At 3 dB above each MCS's operating point the decode must succeed.
	grid := []MCS{0, 4, 9, 13, 17, 22, 28}
	if testing.Short() {
		grid = []MCS{0, 13, 28}
	}
	for _, mcs := range grid {
		for _, nprb := range []int{4, 25, 100} {
			if err := roundtripOnce(t, mcs, nprb, mcs.OperatingSNR()+3, int64(mcs)*1000+int64(nprb)); err != nil {
				t.Fatalf("MCS %d nprb=%d at op+3dB: %v", mcs, nprb, err)
			}
		}
	}
}

func TestTransportFailsAtVeryLowSNR(t *testing.T) {
	// 15 dB below the operating point the CRC must fail (and be reported).
	err := roundtripOnce(t, 22, 50, MCS(22).OperatingSNR()-15, 77)
	if !errors.Is(err, ErrCRC) {
		t.Fatalf("expected CRC failure, got %v", err)
	}
}

func TestTransportWrongScramblingFails(t *testing.T) {
	// Decoding with the wrong RNTI must descramble garbage and fail CRC.
	p, err := newTBProc(10, 25, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(60))
	payload := randBits(rng, p.TransportBlockSize())
	syms, err := p.Encode(payload, 17, 101, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := append([]complex128(nil), syms...)
	if _, err := p.Decode(rx, 0.01, 18, 101, 4, 0, nil); !errors.Is(err, ErrCRC) {
		t.Fatalf("wrong RNTI decoded successfully: %v", err)
	}
}

func TestTransportHARQCombining(t *testing.T) {
	// At an SNR where a single transmission fails, chase-combining two
	// transmissions (rv 0 then 2) through a shared soft buffer must succeed.
	const mcs, nprb = 17, 50
	p, err := newTBProc(mcs, nprb, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	payload := randBits(rng, p.TransportBlockSize())

	snr := MCS(mcs).OperatingSNR() - 2.5 // first TX should usually fail
	ch := NewAWGNChannel(snr, 62)
	sb := p.NewSoftBuffer()
	sb.Reset()

	syms, err := p.Encode(payload, 5, 7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := append([]complex128(nil), syms...)
	ch.Apply(rx)
	_, err1 := p.Decode(rx, ch.N0(), 5, 7, 0, 0, sb)

	syms2, err := p.Encode(payload, 5, 7, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rx2 := append([]complex128(nil), syms2...)
	ch.Apply(rx2)
	out, err2 := p.Decode(rx2, ch.N0(), 5, 7, 0, 2, sb)
	if err2 != nil {
		t.Fatalf("combined decode failed (first TX err=%v): %v", err1, err2)
	}
	for i := range payload {
		if out[i] != payload[i] {
			t.Fatalf("combined payload mismatch at %d", i)
		}
	}
}

func TestTransportTimingsPopulated(t *testing.T) {
	p, err := newTBProc(20, 50, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	payload := randBits(rng, p.TransportBlockSize())
	syms, err := p.Encode(payload, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Timings.EncodeChain <= 0 || p.Timings.Modulate <= 0 {
		t.Fatal("encode timings not recorded")
	}
	rx := append([]complex128(nil), syms...)
	ch := NewAWGNChannel(MCS(20).OperatingSNR()+3, 64)
	ch.Apply(rx)
	if _, err := p.Decode(rx, ch.N0(), 1, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	tm := p.Timings
	// Default (fused) front-end: the single-pass stage is timed, the staged
	// sweeps read zero.
	if tm.FrontEnd <= 0 || tm.TurboDecode <= 0 || tm.Total() <= 0 {
		t.Fatalf("decode timings not recorded: %+v", tm)
	}
	if tm.Demodulate != 0 || tm.Descramble != 0 || tm.Dematch != 0 {
		t.Fatalf("staged stage timings nonzero on fused path: %+v", tm)
	}
	if tm.TurboIterations < p.NumCodeBlocks() {
		t.Fatalf("turbo iterations %d below block count %d", tm.TurboIterations, p.NumCodeBlocks())
	}
	// Staged oracle front-end: the per-stage sweeps are timed instead.
	ps, err := newTBProc(20, 50, DecodeProfile{FrontEnd: FrontEndStaged})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Decode(rx, ch.N0(), 1, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	tm = ps.Timings
	if tm.Demodulate <= 0 || tm.Descramble <= 0 || tm.Dematch <= 0 || tm.TurboDecode <= 0 {
		t.Fatalf("staged decode timings not recorded: %+v", tm)
	}
	if tm.FrontEnd != 0 {
		t.Fatalf("fused stage timing nonzero on staged path: %+v", tm)
	}
}

// TestTransportFrontEndSplitAlwaysReported pins the stage ledger: every
// profile with the fused front-end — the default, the scalar width and the
// float32 kernel — reports the front-end/turbo split, because the per-block
// front-ends run on the caller, where they are timed.
func TestTransportFrontEndSplitAlwaysReported(t *testing.T) {
	for _, o := range []DecodeProfile{{}, {Batch: 1}, {Kernel: KernelFloat32}} {
		p, err := newTBProc(24, 50, o)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(65))
		payload := randBits(rng, p.TransportBlockSize())
		syms, err := p.Encode(payload, 1, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		rx := append([]complex128(nil), syms...)
		ch := NewAWGNChannel(MCS(24).OperatingSNR()+3, 66)
		ch.Apply(rx)
		if _, err := p.Decode(rx, ch.N0(), 1, 1, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
		if tm := p.Timings; tm.FrontEnd <= 0 || tm.TurboDecode <= 0 {
			t.Errorf("%+v: the front-end/turbo split is not reported, got %+v", o, tm)
		}
	}
}

// TestProcessorBuildsDecoderOnFirstDecode pins turbo-decoder ownership: a
// processor builds neither its decoder nor its decode-side buffers until it
// decodes, then keeps the one decoder for every shape and block size it
// decodes, with the iteration bound it was given.
func TestProcessorBuildsDecoderOnFirstDecode(t *testing.T) {
	p, err := NewTransportProcessor(11, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := shapeOf(9, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := shapeOf(16, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.seg.K == b.seg.K {
		t.Fatalf("both shapes segment to K=%d", a.seg.K)
	}
	rng := rand.New(rand.NewSource(71))
	roundtrip := func(sh tbShape, margin float64) error {
		payload := randBits(rng, sh.tbs)
		syms, err := p.Encode(sh.mcs, sh.nprb, payload, 5, 9, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		rx := append([]complex128(nil), syms...)
		ch := NewAWGNChannel(sh.mcs.OperatingSNR()+margin, 72)
		ch.Apply(rx)
		out, err := p.Decode(sh.mcs, sh.nprb, rx, ch.N0(), 5, 9, 1, 0, nil)
		if err == nil && !bytes.Equal(out, payload) {
			t.Fatal("payload mismatch")
		}
		return err
	}
	if _, err := p.Encode(a.mcs, a.nprb, randBits(rng, a.tbs), 5, 9, 1, 0); err != nil {
		t.Fatal(err)
	}
	if p.dec != nil || p.blockbk != nil || p.softBuf != nil {
		t.Fatal("an encode built decode-side state")
	}
	if err := roundtrip(a, 4); err != nil {
		t.Fatal(err)
	}
	first := p.dec
	if err := roundtrip(b, 4); err != nil {
		t.Fatal(err)
	}
	if first == nil || p.dec != first {
		t.Fatal("a second shape did not decode on the processor's one decoder")
	}
	// A one-iteration cap fails a block at the operating point; restoring
	// the default budget lifts it for the next decode.
	p.SetMaxIterations(1)
	if err := roundtrip(a, 0); !errors.Is(err, ErrCRC) {
		t.Fatalf("one iteration at the operating point: %v, want ErrCRC", err)
	}
	if p.Timings.TurboIterations != 1 {
		t.Fatalf("capped decode ran %d iterations", p.Timings.TurboIterations)
	}
	p.SetMaxIterations(0)
	if p.MaxIterations() != DefaultTurboIterations {
		t.Fatalf("restored bound %d", p.MaxIterations())
	}
	if err := roundtrip(b, 4); err != nil {
		t.Fatalf("uncapped decode after a capped one: %v", err)
	}
	if p.Timings.TurboIterations < 1 {
		t.Fatal("iterations not recorded")
	}
}

func TestTransportMultiBlockSegmentation(t *testing.T) {
	// High MCS at 100 PRB forces multiple code blocks.
	p, err := newTBProc(28, 100, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCodeBlocks() < 2 {
		t.Fatalf("expected multi-block TB, got C=%d", p.NumCodeBlocks())
	}
	if err := roundtripOnce(t, 28, 100, MCS(28).OperatingSNR()+4, 65); err != nil {
		t.Fatal(err)
	}
}

func TestTransportBadInputs(t *testing.T) {
	p, _ := newTBProc(5, 10, DecodeProfile{})
	if _, err := p.Encode(make([]byte, 3), 0, 0, 0, 0); err == nil {
		t.Fatal("wrong payload size accepted")
	}
	if _, err := p.Decode(make([]complex128, 3), 0.1, 0, 0, 0, 0, nil); err == nil {
		t.Fatal("wrong symbol count accepted")
	}
	if _, err := newTBProc(35, 10, DecodeProfile{}); err == nil {
		t.Fatal("invalid MCS accepted")
	}
	if _, err := newTBProc(5, 0, DecodeProfile{}); err == nil {
		t.Fatal("invalid PRB accepted")
	}
}

func TestTransportDecodeNoAlloc(t *testing.T) {
	// The full receive chain (demod → descramble → dematch → turbo → CRC)
	// must be allocation-free in steady state — the GC-vs-deadline
	// mitigation DESIGN.md §2 commits to.
	p, err := newTBProc(16, 25, DecodeProfile{})
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
	ch := NewAWGNChannel(MCS(16).OperatingSNR()+3, 91)
	ch.Apply(rx)
	// Warm (grows the scrambler keystream buffer once).
	if _, err := p.Decode(rx, ch.N0(), 3, 9, 4, 0, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Decode(rx, ch.N0(), 3, 9, 4, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Decode allocates %v times per subframe", allocs)
	}
}

func TestTransportEncodeIdempotentAcrossCalls(t *testing.T) {
	p, _ := newTBProc(12, 20, DecodeProfile{})
	rng := rand.New(rand.NewSource(66))
	payload := randBits(rng, p.TransportBlockSize())
	a, err := p.Encode(payload, 9, 9, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]complex128(nil), a...)
	b, err := p.Encode(payload, 9, 9, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if b[i] != first[i] {
			t.Fatalf("encode not reproducible at symbol %d", i)
		}
	}
}

// refMarshalSoftBuffer is the original nested-loop serializer (block-major,
// d0|d1|d2 per block, little-endian float32) kept inline as the golden
// reference for the wire format: the contiguous-backing fast path must
// produce byte-identical output.
func refMarshalSoftBuffer(sb *SoftBuffer) []byte {
	var dst []byte
	for i := range sb.ld0 {
		for _, stream := range [][]float32{sb.ld0[i], sb.ld1[i], sb.ld2[i]} {
			for _, v := range stream {
				u := math.Float32bits(v)
				dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
			}
		}
	}
	return dst
}

func TestSoftBufferMarshalGoldenFormat(t *testing.T) {
	p, err := newTBProc(27, 100, DecodeProfile{}) // multi-block
	if err != nil {
		t.Fatal(err)
	}
	sb := p.NewSoftBuffer()
	rng := rand.New(rand.NewSource(21))
	for i := range sb.ld0 {
		for j := range sb.ld0[i] {
			sb.ld0[i][j] = rng.Float32()*8 - 4
			sb.ld1[i][j] = rng.Float32()*8 - 4
			sb.ld2[i][j] = rng.Float32()*8 - 4
		}
	}
	want := refMarshalSoftBuffer(sb)
	got := sb.MarshalAppend(nil)
	if len(got) != sb.MarshalledSize() || len(want) != len(got) {
		t.Fatalf("marshalled size %d, reference %d, MarshalledSize %d", len(got), len(want), sb.MarshalledSize())
	}
	if !bytes.Equal(got, want) {
		t.Fatal("contiguous marshal output differs from the golden nested-loop format")
	}
	// MarshalAppend must append, not overwrite.
	prefixed := sb.MarshalAppend([]byte{0xAA, 0xBB})
	if prefixed[0] != 0xAA || prefixed[1] != 0xBB || !bytes.Equal(prefixed[2:], want) {
		t.Fatal("MarshalAppend does not append to the destination")
	}
	// Round trip into a second buffer of the same shape.
	sb2 := p.NewSoftBuffer()
	n, err := sb2.Unmarshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(got) {
		t.Fatalf("Unmarshal consumed %d bytes, want %d", n, len(got))
	}
	for i := range sb.ld0 {
		for j := range sb.ld0[i] {
			if sb.ld0[i][j] != sb2.ld0[i][j] || sb.ld1[i][j] != sb2.ld1[i][j] || sb.ld2[i][j] != sb2.ld2[i][j] {
				t.Fatalf("round trip differs at block %d offset %d", i, j)
			}
		}
	}
	if _, err := sb2.Unmarshal(got[:10]); err == nil {
		t.Fatal("short unmarshal accepted")
	}
	// Reset must zero every stream through the shared backing.
	sb.Reset()
	for i := range sb.ld0 {
		for j := range sb.ld0[i] {
			if sb.ld0[i][j] != 0 || sb.ld1[i][j] != 0 || sb.ld2[i][j] != 0 {
				t.Fatalf("Reset left residue at block %d offset %d", i, j)
			}
		}
	}
}
