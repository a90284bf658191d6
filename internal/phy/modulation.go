package phy

import (
	"fmt"
	"math"
)

// Modulation is the constellation used for a transport block, identified by
// its bits-per-symbol order Qm as in 36.211 §7.1: QPSK (2), 16-QAM (4),
// 64-QAM (6).
type Modulation uint8

// Supported constellations.
const (
	QPSK  Modulation = 2
	QAM16 Modulation = 4
	QAM64 Modulation = 6
)

// BitsPerSymbol returns Qm.
func (m Modulation) BitsPerSymbol() int { return int(m) }

// String implements fmt.Stringer.
func (m Modulation) String() string {
	switch m {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	default:
		return fmt.Sprintf("Modulation(%d)", uint8(m))
	}
}

// Validate reports whether m is a supported constellation.
func (m Modulation) Validate() error {
	switch m {
	case QPSK, QAM16, QAM64:
		return nil
	}
	return fmt.Errorf("phy: unsupported modulation order %d: %w", uint8(m), ErrBadParameter)
}

// Per-axis PAM levels for Gray-mapped square QAM, normalized to unit average
// symbol energy, per 36.211 tables 7.1.2-1/3-1/4-1. For each axis the bits
// (MSB first along that axis) Gray-index the level.
var (
	qpskLevel  = [2]float64{+1 / math.Sqrt2, -1 / math.Sqrt2}
	qam16Level = [4]float64{
		+1 / math.Sqrt(10), +3 / math.Sqrt(10),
		-1 / math.Sqrt(10), -3 / math.Sqrt(10),
	}
	qam64Level = [8]float64{
		+3 / math.Sqrt(42), +1 / math.Sqrt(42), +5 / math.Sqrt(42), +7 / math.Sqrt(42),
		-3 / math.Sqrt(42), -1 / math.Sqrt(42), -5 / math.Sqrt(42), -7 / math.Sqrt(42),
	}

	// Unit level spacings the closed-form LLRs are written in terms of.
	qpskA  = 1 / math.Sqrt2
	qam16A = 1 / math.Sqrt(10)
	qam64A = 1 / math.Sqrt(42)
)

// levelTable returns the per-axis PAM levels for a validated constellation.
func levelTable(m Modulation) []float64 {
	switch m {
	case QPSK:
		return qpskLevel[:]
	case QAM16:
		return qam16Level[:]
	default:
		return qam64Level[:]
	}
}

// Modulate maps bits (len must be a multiple of Qm) to complex symbols,
// appending to dst and returning it. LTE interleaves axis bits: for Qm=2k the
// even-position bits select the I level and odd-position bits the Q level.
func Modulate(dst []complex128, bits []byte, m Modulation) ([]complex128, error) {
	qm := m.BitsPerSymbol()
	if err := m.Validate(); err != nil {
		return dst, err
	}
	if len(bits)%qm != 0 {
		return dst, fmt.Errorf("phy: bit count %d not a multiple of Qm=%d: %w", len(bits), qm, ErrBadParameter)
	}
	levels := levelTable(m) // hoisted: no per-symbol constellation switch
	for i := 0; i < len(bits); i += qm {
		var iIdx, qIdx int
		for k := 0; k < qm; k += 2 {
			iIdx = iIdx<<1 | int(bits[i+k]&1)
			qIdx = qIdx<<1 | int(bits[i+k+1]&1)
		}
		dst = append(dst, complex(levels[iIdx], levels[qIdx]))
	}
	return dst, nil
}

// demodInvN0 maps the caller-supplied complex noise power to the 2/n0 LLR
// scale factor, with the same floor the tests' reference Demodulate applies.
func demodInvN0(n0 float64) float64 {
	if n0 <= 0 {
		n0 = 1e-9
	}
	return 2 / n0 // per-axis noise variance is n0/2
}

// demodSymbolLLRs writes one symbol's Qm LLRs into dst[:Qm] in transmitted
// bit order. It produces bit-identical values to Demodulate, the
// closed-form reference demodulator kept in modulation_test.go — the same
// multiplication order and float64→float32 conversion points, with the axis
// metrics computed by the branch-reduced *Fast helpers (bit-identical to the
// reference ones by the argument on their definitions) — which is what lets
// the fused front-end stay bit-identical to the staged sweep; the
// fused-vs-staged property tests pin that equality.
func demodSymbolLLRs(dst *[6]float32, s complex128, m Modulation, invN0 float64) {
	switch m {
	case QPSK:
		c := 4 * qpskA * invN0
		dst[0] = float32(c * real(s))
		dst[1] = float32(c * imag(s))
	case QAM16:
		i0, i1 := qam16AxisLLRFast(real(s))
		q0, q1 := qam16AxisLLRFast(imag(s))
		dst[0] = float32(i0 * invN0)
		dst[1] = float32(q0 * invN0)
		dst[2] = float32(i1 * invN0)
		dst[3] = float32(q1 * invN0)
	case QAM64:
		i0, i1, i2 := qam64AxisLLRFast(real(s))
		q0, q1, q2 := qam64AxisLLRFast(imag(s))
		dst[0] = float32(i0 * invN0)
		dst[1] = float32(q0 * invN0)
		dst[2] = float32(i1 * invN0)
		dst[3] = float32(q1 * invN0)
		dst[4] = float32(i2 * invN0)
		dst[5] = float32(q2 * invN0)
	}
}

// Branch-reduced axis metrics for the fused front-end. The reference
// helpers above select their piecewise segment with data-dependent branches,
// which mispredict heavily on noisy inputs; these variants make the same
// comparisons feed conditional assignments (compiled to CMOVs) and apply the
// odd symmetry of the MSB metric by XORing the input's sign bit onto the
// magnitude-domain result. They are bit-identical to the reference for every
// input: the segment partition is the same, each segment's arithmetic keeps
// the reference's operation order (slopes/offsets below are the exact
// products the reference forms at runtime), and negation commutes exactly
// with round-to-nearest subtraction (-u + v = -(u - v) for all u, v).
// TestAxisLLRFastMatchesReference pins the equality exhaustively around
// every segment boundary; the fused-vs-staged property tests pin it
// end-to-end.
//
// qamSegRow packs one segment's coefficients so an axis evaluation loads a
// single table row: l0 = ±(l0s·y − l0o), l1 = l1c − l1s·y, l2 = l2s·t + l2c
// with t = 4a·y. The offsets multiply the squared spacing exactly as the
// reference does — 8*(a*a), not (8*a)*a, which rounds differently — and the
// l2 row turns the reference's two subtraction forms into an exact
// sign-and-add: u − v = 1·u + (−v) and v − u = (−1)·u + v bit for bit.
type qamSegRow struct {
	l0s, l0o, l1c, l1s, l2s, l2c float64
}

var qam16Tab = [2]qamSegRow{
	{l0s: 4 * qam16A, l0o: 0},
	{l0s: 8 * qam16A, l0o: 8 * (qam16A * qam16A)},
}

var qam64Tab = [4]qamSegRow{
	{l0s: 4 * qam64A, l0o: 0,
		l1c: 24 * (qam64A * qam64A), l1s: 8 * qam64A, l2s: 1, l2c: -(8 * (qam64A * qam64A))},
	{l0s: 8 * qam64A, l0o: 8 * (qam64A * qam64A),
		l1c: 16 * (qam64A * qam64A), l1s: 4 * qam64A, l2s: 1, l2c: -(8 * (qam64A * qam64A))},
	{l0s: 12 * qam64A, l0o: 24 * (qam64A * qam64A),
		l1c: 16 * (qam64A * qam64A), l1s: 4 * qam64A, l2s: -1, l2c: 24 * (qam64A * qam64A)},
	{l0s: 16 * qam64A, l0o: 48 * (qam64A * qam64A),
		l1c: 40 * (qam64A * qam64A), l1s: 8 * qam64A, l2s: -1, l2c: 24 * (qam64A * qam64A)},
}

const f64Sign = uint64(1) << 63

// Segment boundaries as float64 bit patterns: for non-negative floats the
// IEEE encoding is order-isomorphic to the integers, so y > c compares as
// int64(bits(y)) > int64(bits(c)) and the segment index is a branchless sum
// of borrow bits — no data-dependent branch for the predictor to miss. The
// boundary values are the exact products (2*a etc.) the float comparisons
// would form.
var (
	q16cmp2a = int64(math.Float64bits(2 * qam16A))
	q64cmp2a = int64(math.Float64bits(2 * qam64A))
	q64cmp4a = int64(math.Float64bits(4 * qam64A))
	q64cmp6a = int64(math.Float64bits(6 * qam64A))
)

// qam16AxisLLRFast is qam16AxisLLR with branchless segment selection;
// bit-identical (see above).
func qam16AxisLLRFast(x float64) (l0, l1 float64) {
	a := qam16A
	bx := math.Float64bits(x)
	sx := bx & f64Sign
	iy := int64(bx &^ f64Sign)
	y := math.Float64frombits(uint64(iy))
	seg := int(uint64(q16cmp2a-iy) >> 63)
	r := &qam16Tab[seg&1]
	m := r.l0s*y - r.l0o
	l0 = math.Float64frombits(math.Float64bits(m) ^ sx)
	l1 = 4 * a * (2*a - y)
	return l0, l1
}

// qam64AxisLLRFast is qam64AxisLLR with branchless segment selection;
// bit-identical (see above).
func qam64AxisLLRFast(x float64) (l0, l1, l2 float64) {
	a := qam64A
	bx := math.Float64bits(x)
	sx := bx & f64Sign
	iy := int64(bx &^ f64Sign)
	y := math.Float64frombits(uint64(iy))
	seg := int(uint64(q64cmp2a-iy)>>63) + int(uint64(q64cmp4a-iy)>>63) + int(uint64(q64cmp6a-iy)>>63)
	r := &qam64Tab[seg&3]
	m := r.l0s*y - r.l0o
	l0 = math.Float64frombits(math.Float64bits(m) ^ sx)
	l1 = r.l1c - r.l1s*y
	t := 4 * a * y
	l2 = r.l2s*t + r.l2c
	return l0, l1, l2
}
