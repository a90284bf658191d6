package phy

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// decodeBothFrontEnds encodes a random payload on one processor, passes the
// symbols through AWGN, then decodes the identical received vector with a
// staged-oracle processor and a fused processor (each with its own soft
// buffer, carried across the rv sequence for HARQ combining), comparing
// payloads, errors, and full soft-buffer contents bit for bit. On AVX2
// hosts a third, scalar-tile fused processor (NoVectorFrontEnd) decodes the
// same vector, pinning the vector and pure-Go tile kernels to each other at
// every code-block boundary residue the configuration produces.
func decodeBothFrontEnds(t *testing.T, mcs MCS, nprb int, kernel DecodeKernel, rvs []int, snrDB float64, seed int64) {
	t.Helper()
	staged, err := newTBProc(mcs, nprb, DecodeProfile{Kernel: kernel, FrontEnd: FrontEndStaged})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := newTBProc(mcs, nprb, DecodeProfile{Kernel: kernel, FrontEnd: FrontEndFused})
	if err != nil {
		t.Fatal(err)
	}
	var scalar *tbProc
	var sbSc *SoftBuffer
	if FrontEndAVX2() {
		scalar, err = newTBProc(mcs, nprb, DecodeProfile{Kernel: kernel, FrontEnd: FrontEndFused, NoVectorFrontEnd: true})
		if err != nil {
			t.Fatal(err)
		}
		sbSc = scalar.NewSoftBuffer()
	}

	rng := rand.New(rand.NewSource(seed))
	payload := randBits(rng, staged.TransportBlockSize())
	sbS := staged.NewSoftBuffer()
	sbF := fused.NewSoftBuffer()
	ch := NewAWGNChannel(snrDB, seed)
	for _, rv := range rvs {
		syms, err := staged.Encode(payload, 17, 101, 4, rv)
		if err != nil {
			t.Fatal(err)
		}
		rx := append([]complex128(nil), syms...)
		ch.Apply(rx)

		outS, errS := staged.Decode(rx, ch.N0(), 17, 101, 4, rv, sbS)
		outF, errF := fused.Decode(rx, ch.N0(), 17, 101, 4, rv, sbF)
		if (errS == nil) != (errF == nil) ||
			(errS != nil && errors.Is(errS, ErrCRC) != errors.Is(errF, ErrCRC)) {
			t.Fatalf("mcs %d nprb %d rv %d: staged err %v, fused err %v", mcs, nprb, rv, errS, errF)
		}
		if errS == nil && !bytes.Equal(outS, outF) {
			t.Fatalf("mcs %d nprb %d rv %d: decoded payloads differ", mcs, nprb, rv)
		}
		if len(sbS.back) != len(sbF.back) {
			t.Fatalf("soft buffer sizes differ: %d vs %d", len(sbS.back), len(sbF.back))
		}
		for j := range sbS.back {
			if math.Float32bits(sbS.back[j]) != math.Float32bits(sbF.back[j]) {
				t.Fatalf("mcs %d nprb %d rv %d: soft buffer differs at %d: %v vs %v",
					mcs, nprb, rv, j, sbS.back[j], sbF.back[j])
			}
		}
		if scalar == nil {
			continue
		}
		outSc, errSc := scalar.Decode(rx, ch.N0(), 17, 101, 4, rv, sbSc)
		if (errF == nil) != (errSc == nil) {
			t.Fatalf("mcs %d nprb %d rv %d: vector err %v, scalar-tile err %v", mcs, nprb, rv, errF, errSc)
		}
		if errF == nil && !bytes.Equal(outF, outSc) {
			t.Fatalf("mcs %d nprb %d rv %d: vector and scalar-tile payloads differ", mcs, nprb, rv)
		}
		for j := range sbF.back {
			if math.Float32bits(sbF.back[j]) != math.Float32bits(sbSc.back[j]) {
				t.Fatalf("mcs %d nprb %d rv %d: vector vs scalar-tile soft buffer differs at %d: %v vs %v",
					mcs, nprb, rv, j, sbF.back[j], sbSc.back[j])
			}
		}
	}
}

func TestFusedFrontEndMatchesStagedOracle(t *testing.T) {
	// The fused single-pass front-end must be bit-identical to the staged
	// three-sweep pipeline: same payloads, same errors, same accumulated
	// soft-buffer words — across modulations, segment counts, kernels, and
	// HARQ retransmission sequences.
	cases := []struct {
		mcs  MCS
		nprb int
	}{
		{0, 6},    // QPSK, tiny allocation
		{4, 25},   // QPSK
		{13, 50},  // 16QAM
		{17, 3},   // 16QAM, mid-symbol block boundaries at small PRB
		{22, 50},  // 64QAM
		{27, 100}, // 64QAM, many code blocks
	}
	for _, kernel := range []DecodeKernel{KernelFloat32, KernelInt16} {
		for i, c := range cases {
			// op+3dB: first transmission usually passes; the low-SNR HARQ
			// case below covers combining across rv.
			decodeBothFrontEnds(t, c.mcs, c.nprb, kernel, []int{0}, c.mcs.OperatingSNR()+3, int64(100+i))
		}
	}
}

func TestFusedFrontEndHARQRetransmissions(t *testing.T) {
	// rv > 0 exercises different circular-buffer offsets, and the carried
	// soft buffer exercises accumulation on top of nonzero state.
	for _, c := range []struct {
		mcs  MCS
		nprb int
	}{{13, 50}, {22, 100}} {
		decodeBothFrontEnds(t, c.mcs, c.nprb, KernelFloat32,
			[]int{0, 2, 3, 1}, c.mcs.OperatingSNR()-4, 7)
	}
}

func TestFrontEndValidate(t *testing.T) {
	if err := FrontEndFused.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := FrontEndStaged.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := FrontEnd(9).Validate(); err == nil {
		t.Fatal("bogus front-end accepted")
	}
	if FrontEndFused.String() != "fused" || FrontEndStaged.String() != "staged" {
		t.Fatalf("front-end names wrong: %v %v", FrontEndFused, FrontEndStaged)
	}
	if _, err := newTBProc(10, 25, DecodeProfile{FrontEnd: FrontEnd(9)}); err == nil {
		t.Fatal("processor with bogus front-end accepted")
	}
}

func TestFusedDecodeValidation(t *testing.T) {
	p, err := newTBProc(10, 25, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]complex128, p.NumSymbols())
	if _, err := p.Decode(rx, 0.1, 1, 1, 0, 7, nil); !errors.Is(err, ErrBadParameter) {
		t.Fatalf("rv=7 not rejected: %v", err)
	}
	wrong := newSoftBuffer(1, 44)
	if _, err := p.Decode(rx, 0.1, 1, 1, 0, 0, wrong); !errors.Is(err, ErrBadParameter) {
		t.Fatalf("mis-shaped soft buffer not rejected: %v", err)
	}
}

// FuzzFusedFrontEnd drives random (MCS, PRB, rv, noise seed) configurations
// through both front-ends (and, on AVX2 hosts, the scalar-tile fused path)
// and requires identical payloads, error outcomes, and soft-buffer
// contents. The small-PRB seeds put code-block boundaries mid-symbol: with
// few PRBs per block the offsets sweep every bit-in-symbol residue across
// the three modulations, driving the tile pipeline's head/tail peel paths.
func FuzzFusedFrontEnd(f *testing.F) {
	f.Add(uint8(4), uint8(10), uint8(0), int64(1))
	f.Add(uint8(17), uint8(3), uint8(2), int64(2))
	f.Add(uint8(27), uint8(50), uint8(3), int64(3))
	f.Add(uint8(2), uint8(1), uint8(0), int64(4))  // QPSK, single PRB
	f.Add(uint8(13), uint8(3), uint8(1), int64(5)) // 16QAM, mid-symbol boundaries
	f.Add(uint8(16), uint8(5), uint8(0), int64(6)) // 16QAM, odd offsets
	f.Add(uint8(22), uint8(3), uint8(2), int64(7)) // 64QAM, mid-symbol boundaries
	f.Add(uint8(25), uint8(7), uint8(0), int64(8)) // 64QAM, odd offsets
	f.Add(uint8(28), uint8(11), uint8(3), int64(9))
	f.Fuzz(func(t *testing.T, mcsRaw, nprbRaw, rvRaw uint8, seed int64) {
		mcs := MCS(mcsRaw % 29)
		nprb := 1 + int(nprbRaw)%25
		rv := int(rvRaw) % 4
		if _, err := mcs.TransportBlockSize(nprb); err != nil {
			t.Skip()
		}
		rvs := []int{0}
		if rv != 0 {
			rvs = []int{0, rv}
		}
		decodeBothFrontEnds(t, mcs, nprb, KernelFloat32, rvs, mcs.OperatingSNR()+1, seed)
	})
}
