package phy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestModulationProperties(t *testing.T) {
	for _, m := range []Modulation{QPSK, QAM16, QAM64} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := Modulation(3).Validate(); err == nil {
		t.Fatal("Qm=3 accepted")
	}
	if QPSK.BitsPerSymbol() != 2 || QAM16.BitsPerSymbol() != 4 || QAM64.BitsPerSymbol() != 6 {
		t.Fatal("bits per symbol wrong")
	}
}

func TestConstellationUnitEnergy(t *testing.T) {
	// Averaged over all bit patterns, symbol energy must be 1.
	for _, m := range []Modulation{QPSK, QAM16, QAM64} {
		qm := m.BitsPerSymbol()
		n := 1 << qm
		var energy float64
		for v := 0; v < n; v++ {
			bits := make([]byte, qm)
			for i := 0; i < qm; i++ {
				bits[i] = byte((v >> uint(qm-1-i)) & 1)
			}
			syms, err := Modulate(nil, bits, m)
			if err != nil {
				t.Fatal(err)
			}
			energy += real(syms[0])*real(syms[0]) + imag(syms[0])*imag(syms[0])
		}
		energy /= float64(n)
		if math.Abs(energy-1) > 1e-12 {
			t.Fatalf("%v: mean energy %v, want 1", m, energy)
		}
	}
}

func TestConstellationDistinctPoints(t *testing.T) {
	for _, m := range []Modulation{QPSK, QAM16, QAM64} {
		qm := m.BitsPerSymbol()
		n := 1 << qm
		seen := make(map[complex128]bool)
		for v := 0; v < n; v++ {
			bits := make([]byte, qm)
			for i := 0; i < qm; i++ {
				bits[i] = byte((v >> uint(qm-1-i)) & 1)
			}
			syms, _ := Modulate(nil, bits, m)
			if seen[syms[0]] {
				t.Fatalf("%v: duplicate constellation point for pattern %b", m, v)
			}
			seen[syms[0]] = true
		}
	}
}

func TestModDemodNoiseFreeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, m := range []Modulation{QPSK, QAM16, QAM64} {
		bits := randBits(rng, 600*m.BitsPerSymbol()/6*6)
		// Make the length a multiple of Qm.
		bits = bits[:len(bits)/m.BitsPerSymbol()*m.BitsPerSymbol()]
		syms, err := Modulate(nil, bits, m)
		if err != nil {
			t.Fatal(err)
		}
		llr, err := Demodulate(nil, syms, m, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if len(llr) != len(bits) {
			t.Fatalf("%v: %d LLRs for %d bits", m, len(llr), len(bits))
		}
		out := HardDecision(nil, llr)
		for i := range bits {
			if out[i] != bits[i] {
				t.Fatalf("%v: hard decision wrong at %d", m, i)
			}
		}
	}
}

func TestDemodLLRMagnitudeScalesWithSNR(t *testing.T) {
	bits := []byte{0, 0}
	syms, _ := Modulate(nil, bits, QPSK)
	hi, _ := Demodulate(nil, syms, QPSK, 0.01)
	lo, _ := Demodulate(nil, syms, QPSK, 1.0)
	if hi[0] <= lo[0] {
		t.Fatalf("LLR at low noise (%v) not larger than at high noise (%v)", hi[0], lo[0])
	}
	if hi[0] <= 0 || lo[0] <= 0 {
		t.Fatal("bit 0 must give positive LLR")
	}
}

func TestModulateRejectsBadLength(t *testing.T) {
	if _, err := Modulate(nil, make([]byte, 5), QAM16); err == nil {
		t.Fatal("non-multiple of Qm accepted")
	}
	if _, err := Modulate(nil, make([]byte, 4), Modulation(5)); err == nil {
		t.Fatal("invalid modulation accepted")
	}
}

func TestModDemodQuickUnderLightNoise(t *testing.T) {
	// Under light AWGN the minimum-distance decision must still be right
	// nearly always; we assert zero errors at very high SNR.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mods := []Modulation{QPSK, QAM16, QAM64}
		m := mods[rng.Intn(len(mods))]
		n := m.BitsPerSymbol() * (1 + rng.Intn(100))
		bits := randBits(rng, n)
		syms, err := Modulate(nil, bits, m)
		if err != nil {
			return false
		}
		ch := NewAWGNChannel(40, seed) // 40 dB: essentially noiseless
		ch.Apply(syms)
		llr, err := Demodulate(nil, syms, m, ch.N0())
		if err != nil {
			return false
		}
		out := HardDecision(nil, llr)
		for i := range bits {
			if out[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// axisLLRScan is the retired scan-based max-log axis LLR (min squared
// distance over bit-0 vs bit-1 constellation points), kept as the oracle the
// closed-form piecewise-linear LLRs in Demodulate are pinned against.
func axisLLRScan(x float64, m Modulation, k, half int, invN0 float64) float32 {
	levels := levelTable(m)
	min0 := math.Inf(1)
	min1 := math.Inf(1)
	for idx, lv := range levels {
		d := x - lv
		met := d * d
		if (idx>>uint(half-1-k))&1 == 0 {
			if met < min0 {
				min0 = met
			}
		} else if met < min1 {
			min1 = met
		}
	}
	return float32((min1 - min0) * invN0)
}

// TestClosedFormLLRMatchesScanOracle pins the closed-form Demodulate against
// the exhaustive scan across all three constellations, over both random
// received points (wide spread, covering every piecewise segment and the
// saturating outer regions) and a dense deterministic grid.
func TestClosedFormLLRMatchesScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, m := range []Modulation{QPSK, QAM16, QAM64} {
		half := m.BitsPerSymbol() / 2
		var syms []complex128
		for i := 0; i < 400; i++ {
			syms = append(syms, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
		for x := -2.0; x <= 2.0; x += 0.01 {
			syms = append(syms, complex(x, -x))
		}
		for _, n0 := range []float64{0.02, 0.5, 3.0} {
			llr, err := Demodulate(nil, syms, m, n0)
			if err != nil {
				t.Fatal(err)
			}
			invN0 := 2 / n0
			for si, s := range syms {
				for k := 0; k < half; k++ {
					wantI := axisLLRScan(real(s), m, k, half, invN0)
					wantQ := axisLLRScan(imag(s), m, k, half, invN0)
					gotI := llr[si*m.BitsPerSymbol()+2*k]
					gotQ := llr[si*m.BitsPerSymbol()+2*k+1]
					for _, p := range []struct{ got, want float32 }{{gotI, wantI}, {gotQ, wantQ}} {
						tol := 1e-5 * math.Max(1, math.Abs(float64(p.want)))
						if math.Abs(float64(p.got-p.want)) > tol {
							t.Fatalf("%v n0=%v sym %v bit %d: closed-form %v, scan %v",
								m, n0, s, k, p.got, p.want)
						}
					}
				}
			}
		}
	}
}

// TestAxisLLRFastMatchesReference pins the branch-reduced axis metrics the
// fused front-end demodulates with against the reference piecewise helpers,
// bit for bit: dense grids straddling every segment boundary, exact boundary
// points, signed zero, and wide random inputs.
func TestAxisLLRFastMatchesReference(t *testing.T) {
	var xs []float64
	for _, b := range []float64{0, 2 * qam16A, 2 * qam64A, 4 * qam64A, 6 * qam64A} {
		for _, s := range []float64{1, -1} {
			for d := -1e-9; d <= 1e-9; d += 1e-10 {
				xs = append(xs, s*(b+d))
			}
			xs = append(xs, s*b)
		}
	}
	xs = append(xs, math.Copysign(0, -1), 0, 1e300, -1e300, 1e-300, -1e-300)
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 20000; i++ {
		xs = append(xs, rng.NormFloat64()*2)
	}
	for x := -1.5; x <= 1.5; x += 1e-4 {
		xs = append(xs, x)
	}
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, x := range xs {
		r0, r1 := qam16AxisLLR(x)
		f0, f1 := qam16AxisLLRFast(x)
		if !eq(r0, f0) || !eq(r1, f1) {
			t.Fatalf("qam16 x=%v: fast (%v,%v) != reference (%v,%v)", x, f0, f1, r0, r1)
		}
		s0, s1, s2 := qam64AxisLLR(x)
		g0, g1, g2 := qam64AxisLLRFast(x)
		if !eq(s0, g0) || !eq(s1, g1) || !eq(s2, g2) {
			t.Fatalf("qam64 x=%v: fast (%v,%v,%v) != reference (%v,%v,%v)", x, g0, g1, g2, s0, s1, s2)
		}
	}
}

// Demodulate computes per-bit log-likelihood ratios for received symbols
// under AWGN with per-dimension noise variance n0/2 (n0 = total complex noise
// power). Positive LLR means bit 0 is more likely, matching the turbo
// decoder's convention. Max-log approximation computed per axis (square QAM
// axes are independent) in closed form: for Gray-mapped PAM the max-log LLR
// of each axis bit is an exact piecewise-linear function of the received
// coordinate, so no scan over constellation points is needed. The test suite
// keeps the scan as an oracle and pins equality. Results are appended to dst.
func Demodulate(dst []float32, syms []complex128, m Modulation, n0 float64) ([]float32, error) {
	if err := m.Validate(); err != nil {
		return dst, err
	}
	if n0 <= 0 {
		n0 = 1e-9
	}
	invN0 := 2 / n0 // per-axis noise variance is n0/2
	// Transmitted ordering interleaves axis bits: b0(I) b1(Q) b2(I) ...
	switch m {
	case QPSK:
		c := 4 * qpskA * invN0
		for _, s := range syms {
			dst = append(dst, float32(c*real(s)), float32(c*imag(s)))
		}
	case QAM16:
		for _, s := range syms {
			i0, i1 := qam16AxisLLR(real(s))
			q0, q1 := qam16AxisLLR(imag(s))
			dst = append(dst,
				float32(i0*invN0), float32(q0*invN0),
				float32(i1*invN0), float32(q1*invN0))
		}
	case QAM64:
		for _, s := range syms {
			i0, i1, i2 := qam64AxisLLR(real(s))
			q0, q1, q2 := qam64AxisLLR(imag(s))
			dst = append(dst,
				float32(i0*invN0), float32(q0*invN0),
				float32(i1*invN0), float32(q1*invN0),
				float32(i2*invN0), float32(q2*invN0))
		}
	}
	return dst, nil
}

// qam16AxisLLR returns the two per-axis max-log bit metrics (before the
// 1/noise scaling) for Gray-mapped 4-PAM with levels ±a, ±3a. The MSB metric
// is odd-symmetric and saturates in slope past the outer decision boundary;
// the LSB metric is a tent around ±2a.
func qam16AxisLLR(x float64) (l0, l1 float64) {
	a := qam16A
	y := x
	if y < 0 {
		y = -y
	}
	switch {
	case x > 2*a:
		l0 = 8*a*x - 8*a*a
	case x < -2*a:
		l0 = 8*a*x + 8*a*a
	default:
		l0 = 4 * a * x
	}
	l1 = 4 * a * (2*a - y)
	return l0, l1
}

// qam64AxisLLR returns the three per-axis max-log bit metrics (before the
// 1/noise scaling) for Gray-mapped 8-PAM with levels ±a..±7a: the MSB is a
// four-segment odd-symmetric ramp, the middle bit a piecewise tent around
// ±4a, the LSB a double tent with peaks at ±2a and ±6a.
func qam64AxisLLR(x float64) (l0, l1, l2 float64) {
	a := qam64A
	y := x
	if y < 0 {
		y = -y
	}
	a2 := a * a
	switch {
	case y <= 2*a:
		l0 = 4 * a * x
	case y <= 4*a:
		l0 = 8*a*x - 8*a2
		if x < 0 {
			l0 = 8*a*x + 8*a2
		}
	case y <= 6*a:
		l0 = 12*a*x - 24*a2
		if x < 0 {
			l0 = 12*a*x + 24*a2
		}
	default:
		l0 = 16*a*x - 48*a2
		if x < 0 {
			l0 = 16*a*x + 48*a2
		}
	}
	switch {
	case y <= 2*a:
		l1 = 24*a2 - 8*a*y
	case y <= 6*a:
		l1 = 16*a2 - 4*a*y
	default:
		l1 = 40*a2 - 8*a*y
	}
	if y <= 4*a {
		l2 = 4*a*y - 8*a2
	} else {
		l2 = 24*a2 - 4*a*y
	}
	return l0, l1, l2
}

// HardDecision converts LLRs to bits using the positive-LLR⇒0 convention,
// appending to dst.
func HardDecision(dst []byte, llr []float32) []byte {
	for _, v := range llr {
		if v >= 0 {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
		}
	}
	return dst
}
