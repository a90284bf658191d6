package phy

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT is a planned, allocation-free radix-2 decimation-in-time FFT used for
// OFDM (de)modulation. It computes in float32 over split re/im planes:
//
//   - the bit-reversal permutation is folded into the complex128 → float32
//     load, which also runs the first three stages (twiddles ±1, −i and
//     (±1−i)/√2) in float64 and rounds once; Inverse's re/im swap is folded
//     into it too;
//   - every later stage reads its twiddles from a contiguous per-stage table
//     (and, on AVX2, prefetches the bins the result goes to);
//   - the planes widen back into complex128 bins, scaled by 1/n for Inverse.
//
// Where the CPU has AVX2, all three run in assembly (fft_amd64.s): the load
// four groups at a time in float64 vectors with one VCVTPD2PS rounding and a
// 4×8 transpose into the rows, the stages as 8-wide float32 butterflies, the
// widening four bins at a time. Each kernel is bit-identical to its pure-Go
// twin (FFT.load, fftStagesGo, widenGo), which is what runs below the vector
// width and in builds without the assembly: no fused multiply-add, the same
// operation order.
//
// The result is float32-accurate: against an exact DFT the error is within
// Higham's radix-2 bound, a few ε₃₂·log₂n of the output's norm.
//
// A plan owns its scratch planes, so it is not safe for concurrent use. The
// data plane creates one plan per cell (sized by the cell bandwidth's FFT
// size) at setup and reuses it for every symbol, so the hot path does not
// allocate.
type FFT struct {
	n int
	// base[b] is the bit reversal of 8b: load group b's first input.
	base []int32
	// tw holds the stages with half h = 8, 16, …, n/2 back to back: h
	// cosines then h sines of −πk/h at tw[2h−16:].
	tw     []float32
	re, im []float32 // the planes a transform runs in
}

// NewFFT returns a plan for size n, which must be a power of two ≥ 2.
func NewFFT(n int) (*FFT, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("phy: FFT size %d is not a power of two ≥ 2: %w", n, ErrBadParameter)
	}
	f := &FFT{n: n, re: make([]float32, n), im: make([]float32, n)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for b := 0; b < n/8; b++ {
		f.base = append(f.base, int32(bits.Reverse64(uint64(8*b))>>shift))
	}
	for h := 8; h < n; h <<= 1 {
		wr, wi := make([]float32, h), make([]float32, h)
		for k := range wr {
			s, c := math.Sincos(-math.Pi * float64(k) / float64(h))
			wr[k], wi[k] = float32(c), float32(s)
		}
		f.tw = append(append(f.tw, wr...), wi...)
	}
	return f, nil
}

// Size returns the transform length.
func (f *FFT) Size() int { return f.n }

// Inverse computes the in-place inverse DFT of x, including the 1/n scaling,
// so Inverse(Forward(x)) == x up to rounding. It is the forward transform
// with re and im swapped on the way in and out, and 1/n scales each part as
// a real number (so 1+∞i stays ∞ in imag and finite in real).
func (f *FFT) Inverse(x []complex128) error {
	if len(x) != f.n {
		return fmt.Errorf("phy: FFT input length %d != plan size %d: %w", len(x), f.n, ErrBadParameter)
	}
	f.loadPlanes(x, true)
	f.runStages(x)
	widen(x, f.im, f.re, 1/float64(f.n))
	return nil
}

// loadPlanes runs the load (FFT.load or its AVX2 twin) on x, or on x with
// re and im swapped (x itself may then be left swapped).
func (f *FFT) loadPlanes(x []complex128, swap bool) {
	if fftAsm && f.n >= 32 {
		fftLoadAVX2(&f.re[0], &f.im[0], &x[0], &f.base[0], f.n, swap)
		return
	}
	if swap {
		for i, v := range x {
			x[i] = complex(imag(v), real(v))
		}
	}
	f.load(x)
}

// runStages runs the stages with half ≥ 8 over the loaded planes; dst (not
// empty) is where the caller will widen the result. The AVX2 stages
// prefetch dst, spread evenly over their butterflies: the row of a cell's
// grid that a symbol demodulates into is usually cold by then, and the
// stages are the part of the transform that leaves memory idle, so its
// lines arrive while they compute instead of stalling the stores.
func (f *FFT) runStages(dst []complex128) {
	if f.n < 16 {
		return
	}
	if fftAsm {
		iters := f.n / 16 * (bits.TrailingZeros(uint(f.n)) - 3)
		fftStagesAVX2(&f.re[0], &f.im[0], &f.tw[0], f.n, &dst[0], len(dst)*16/iters)
	} else {
		fftStagesGo(f.re, f.im, f.tw)
	}
}

// load reads x in bit-reversed order into the planes and runs the stages
// with half 1, 2 and 4 on the way: each group of eight outputs is the
// 8-point DFT of eight inputs n/8 apart. Their twiddles are 1, −i and
// (±1−i)/√2, so the group is computed in float64 and rounded once. It is
// the pure-Go twin of fftLoadAVX2: the explicit float64 conversions keep
// the compiler from fusing a stage-3 multiply into the add after it.
func (f *FFT) load(x []complex128) {
	n := f.n
	re, im := f.re[:n], f.im[:n]
	switch n {
	case 2:
		put(re, im, 0, x[0]+x[1])
		put(re, im, 1, x[0]-x[1])
		return
	case 4:
		o0, o1, o2, o3 := dft4(x[0], x[2], x[1], x[3])
		put(re, im, 0, o0)
		put(re, im, 1, o1)
		put(re, im, 2, o2)
		put(re, im, 3, o3)
		return
	}
	// Position 8b+j holds input r + rev₃(j)·e, r the bit reversal of 8b: the
	// eight inputs of a group sit in the eight streams xm = x[m·e:(m+1)·e] at
	// r. The loop runs in r order, so that every stream is read sequentially;
	// base is its own inverse (b = base[r]).
	e := n / 8
	base := f.base[:e]
	x0, x1, x2, x3 := x[0:e], x[e:2*e], x[2*e:3*e], x[3*e:4*e]
	x4, x5, x6, x7 := x[4*e:5*e], x[5*e:6*e], x[6*e:7*e], x[7*e:8*e]
	for r, b := range base {
		a0, a1, a2, a3 := dft4(x0[r], x4[r], x2[r], x6[r])
		b0, b1, b2, b3 := dft4(x1[r], x5[r], x3[r], x7[r])
		// Stage 3: twiddles 1, (1−i)/√2, −i, (−1−i)/√2.
		const c = math.Sqrt2 / 2
		t1 := complex(float64((real(b1)+imag(b1))*c), float64((imag(b1)-real(b1))*c))
		t2 := complex(imag(b2), -real(b2))
		t3 := complex(float64((imag(b3)-real(b3))*c), float64(-(real(b3)+imag(b3))*c))
		r8, i8 := re[8*b:8*b+8], im[8*b:8*b+8]
		put(r8, i8, 0, a0+b0)
		put(r8, i8, 1, a1+t1)
		put(r8, i8, 2, a2+t2)
		put(r8, i8, 3, a3+t3)
		put(r8, i8, 4, a0-b0)
		put(r8, i8, 5, a1-t1)
		put(r8, i8, 6, a2-t2)
		put(r8, i8, 7, a3-t3)
	}
}

// dft4 runs stages 1 and 2 over four inputs in bit-reversed order: the
// 4-point DFT of (p0, p2, p1, p3).
func dft4(p0, p1, p2, p3 complex128) (o0, o1, o2, o3 complex128) {
	q0, q1, q2, q3 := p0+p1, p0-p1, p2+p3, p2-p3
	t := complex(imag(q3), -real(q3)) // −i·q3
	return q0 + q2, q1 + t, q0 - q2, q1 - t
}

// put rounds v into the planes at j.
func put(re, im []float32, j int, v complex128) {
	re[j], im[j] = float32(real(v)), float32(imag(v))
}

// widen stores dst[k] = complex(float64(a[k])·s, float64(b[k])·s): the
// planes (or a window of them) back into complex128 bins, scaled by s. The
// AVX2 kernel takes whole vectors of four and widenGo the rest.
func widen(dst []complex128, a, b []float32, s float64) {
	if m := len(dst) &^ 3; fftAsm && m > 0 {
		fftWidenAVX2(&dst[0], &a[0], &b[0], m, s)
		dst, a, b = dst[m:], a[m:], b[m:]
	}
	widenGo(dst, a, b, s)
}

// widenGo is the pure-Go twin of fftWidenAVX2. A scale of 1 leaves every
// value as its plain widening.
func widenGo(dst []complex128, a, b []float32, s float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for k := range dst {
		dst[k] = complex(float64(a[k])*s, float64(b[k])*s)
	}
}

// fftStagesGo is the pure-Go twin of fftStagesAVX2: the radix-2 stages with
// half h = 8, 16, …, n/2 over the planes, each butterfly in the operation
// order the assembly uses. The explicit float32 conversions keep the
// compiler from fusing a multiply into the add after it.
func fftStagesGo(re, im, tw []float32) {
	n := len(re)
	im = im[:n]
	for h := 8; h < n; h <<= 1 {
		wr, wi := tw[2*h-16:3*h-16], tw[3*h-16:4*h-16]
		wi = wi[:len(wr)]
		for s := 0; s < n; s += 2 * h {
			ar, ai := re[s:s+h], im[s:s+h]
			br, bi := re[s+h:s+2*h], im[s+h:s+2*h]
			for k, c := range wr {
				tr := float32(c*br[k]) - float32(wi[k]*bi[k])
				ti := float32(c*bi[k]) + float32(wi[k]*br[k])
				ar[k], br[k] = ar[k]+tr, ar[k]-tr
				ai[k], bi[k] = ai[k]+ti, ai[k]-ti
			}
		}
	}
}

// OFDMModulator maps frequency-domain subcarrier values to time-domain
// samples (IFFT with the LTE half-subcarrier layout: DC unused, positive
// subcarriers in bins 1..k, negative in bins n-k..n-1) and back. One
// instance per cell; like its FFT plan it is not safe for concurrent use.
type OFDMModulator struct {
	fft    *FFT
	usedSC int // active subcarriers (12 × PRB)
}

// NewOFDMModulator returns a modulator for the given bandwidth.
func NewOFDMModulator(bw Bandwidth) (*OFDMModulator, error) {
	if err := bw.Validate(); err != nil {
		return nil, err
	}
	f, err := NewFFT(bw.FFTSize())
	if err != nil {
		return nil, err
	}
	return &OFDMModulator{fft: f, usedSC: bw.PRB() * SubcarriersPerPRB}, nil
}

// FFTSize returns the underlying transform length.
func (o *OFDMModulator) FFTSize() int { return o.fft.Size() }

// UsedSubcarriers returns the number of active data subcarriers.
func (o *OFDMModulator) UsedSubcarriers() int { return o.usedSC }

// Symbol transforms one OFDM symbol's subcarrier values (len == UsedSubcarriers)
// into time-domain samples written into dst (len == FFTSize). It is the IFFT
// direction, used by the RRH emulator's transmitter.
func (o *OFDMModulator) Symbol(dst []complex128, subcarriers []complex128) error {
	if len(subcarriers) != o.usedSC {
		return fmt.Errorf("phy: got %d subcarriers, want %d: %w", len(subcarriers), o.usedSC, ErrBadParameter)
	}
	if len(dst) != o.fft.Size() {
		return fmt.Errorf("phy: dst length %d != FFT size %d: %w", len(dst), o.fft.Size(), ErrBadParameter)
	}
	n := o.fft.Size()
	for i := range dst {
		dst[i] = 0
	}
	half := o.usedSC / 2
	// Negative-frequency half occupies the top bins; positive starts at 1.
	for k := 0; k < half; k++ {
		dst[n-half+k] = subcarriers[k] // subcarriers below DC
		dst[1+k] = subcarriers[half+k] // subcarriers above DC
	}
	return o.fft.Inverse(dst)
}

// Demodulate transforms time-domain samples (len == FFTSize) back into
// subcarrier values written into dst (len == UsedSubcarriers). It is the FFT
// direction that begins uplink processing; samples is only read, and only
// the used bins are stored.
func (o *OFDMModulator) Demodulate(dst []complex128, samples []complex128) error {
	if len(samples) != o.fft.Size() {
		return fmt.Errorf("phy: got %d samples, want %d: %w", len(samples), o.fft.Size(), ErrBadParameter)
	}
	if len(dst) != o.usedSC {
		return fmt.Errorf("phy: dst length %d != %d subcarriers: %w", len(dst), o.usedSC, ErrBadParameter)
	}
	f := o.fft
	f.loadPlanes(samples, false)
	f.runStages(dst)
	half := o.usedSC / 2
	widen(dst[:half], f.re[f.n-half:], f.im[f.n-half:], 1)
	widen(dst[half:2*half], f.re[1:1+half], f.im[1:1+half], 1)
	return nil
}
