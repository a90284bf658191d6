package phy

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randSymbols(rng *rand.Rand, n int) []complex128 {
	s := make([]complex128, n)
	for i := range s {
		s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return s
}

// norm2 is the L2 norm of x.
func norm2(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// fftErrBound bounds the relative error of one float32 transform of size n,
// ‖X̂ − X‖₂ ≤ fftErrBound(n)·‖X‖₂ against the exact DFT X. It is Higham's
// radix-2 bound (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
// Thm 24.2), L = log₂n·η/(1 − log₂n·η) with η = μ + γ₄(√2 + μ), for unit
// roundoff u = 2⁻²⁴, twiddles rounded to within μ = u and γ₄ = 4u/(1 − 4u),
// composed with the rounding of the input to float32: L·(1+u) + u. It holds
// while the signal stays in float32's normal range. Since no element's error
// exceeds the L2 norm of all of them, it bounds every bin too.
func fftErrBound(n int) float64 {
	const u = 0x1p-24
	g4 := 4 * u / (1 - 4*u)
	eta := u + g4*(math.Sqrt2+u)
	l := math.Log2(float64(n)) * eta
	return l/(1-l)*(1+u) + u
}

// fftUnderTest is one transform the FFT properties run on. tol gives the
// largest error a property may show: the oracle keeps the fixed tolerance
// the property always had; the float32 FFT is held to fftErrBound times the
// norm the caller derives the error from.
type fftUnderTest struct {
	name     string
	fwd, inv func([]complex128) error
	tol      func(oracle, norm float64) float64
}

func fftsUnderTest(t testing.TB, n int) []fftUnderTest {
	t.Helper()
	f, err := NewFFT(n)
	if err != nil {
		t.Fatal(err)
	}
	o := newFFTOracle(n)
	bound := fftErrBound(n)
	return []fftUnderTest{
		{"float32", f.Forward, f.Inverse, func(_, norm float64) float64 { return bound * norm }},
		{"oracle", o.Forward, o.Inverse, func(tol, _ float64) float64 { return tol }},
	}
}

func TestFFTInvalidSize(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100, -4} {
		if _, err := NewFFT(n); err == nil {
			t.Fatalf("size %d accepted", n)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// DFT of a unit impulse is flat ones.
	const n = 64
	for _, ft := range fftsUnderTest(t, n) {
		x := make([]complex128, n)
		x[0] = 1
		if err := ft.fwd(x); err != nil {
			t.Fatal(err)
		}
		tol := ft.tol(1e-12, math.Sqrt(n))
		for i, v := range x {
			if cmplx.Abs(v-1) > tol {
				t.Fatalf("%s: bin %d = %v, want 1", ft.name, i, v)
			}
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// exp(2πi·k0·n/N) concentrates all energy in bin k0.
	const n, k0 = 128, 5
	for _, ft := range fftsUnderTest(t, n) {
		x := make([]complex128, n)
		for i := range x {
			ang := 2 * math.Pi * k0 * float64(i) / n
			x[i] = cmplx.Exp(complex(0, ang))
		}
		if err := ft.fwd(x); err != nil {
			t.Fatal(err)
		}
		tol := ft.tol(1e-9, n)
		for i, v := range x {
			want := complex(0, 0)
			if i == k0 {
				want = complex(n, 0)
			}
			if cmplx.Abs(v-want) > tol {
				t.Fatalf("%s: bin %d = %v, want %v", ft.name, i, v, want)
			}
		}
	}
}

func TestFFTRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 8, 128, 1024, 2048} {
		for _, ft := range fftsUnderTest(t, n) {
			x := randSymbols(rng, n)
			orig := slices.Clone(x)
			if err := ft.fwd(x); err != nil {
				t.Fatal(err)
			}
			if err := ft.inv(x); err != nil {
				t.Fatal(err)
			}
			// Each pass errs by at most bound·‖its output‖; the forward
			// pass's error reaches the end scaled by 1/√n, as ‖x‖ = ‖X‖/√n.
			tol := ft.tol(1e-9, (2+fftErrBound(n))*norm2(orig))
			for i := range x {
				if cmplx.Abs(x[i]-orig[i]) > tol {
					t.Fatalf("%s n=%d roundtrip error at %d: %v vs %v", ft.name, n, i, x[i], orig[i])
				}
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Σ|x|² == (1/N)·Σ|X|²; an X̂ within bound·‖X‖ of X has a power within
	// (2+bound)·bound of it.
	const n = 256
	for _, ft := range fftsUnderTest(t, n) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			x := randSymbols(rng, n)
			tPow := norm2(x) * norm2(x)
			if err := ft.fwd(x); err != nil {
				return false
			}
			fPow := norm2(x) * norm2(x)
			return math.Abs(tPow-fPow/n) < ft.tol(1e-6*tPow, (2+fftErrBound(n))*tPow)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(ft.name, err)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 64
	for _, ft := range fftsUnderTest(t, n) {
		a := randSymbols(rng, n)
		b := randSymbols(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + 2*b[i]
		}
		// The three transforms err independently, each by bound·‖X‖ = bound·√n·‖x‖.
		tol := ft.tol(1e-9, math.Sqrt(n)*(norm2(sum)+norm2(a)+2*norm2(b)))
		fa, fb, fs := slices.Clone(a), slices.Clone(b), slices.Clone(sum)
		_ = ft.fwd(fa)
		_ = ft.fwd(fb)
		_ = ft.fwd(fs)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+2*fb[i])) > tol {
				t.Fatalf("%s: linearity violated at bin %d", ft.name, i)
			}
		}
	}
}

func TestFFTLengthMismatch(t *testing.T) {
	f, _ := NewFFT(16)
	if err := f.Forward(make([]complex128, 8)); err == nil {
		t.Fatal("short input accepted by Forward")
	}
	if err := f.Inverse(make([]complex128, 32)); err == nil {
		t.Fatal("long input accepted by Inverse")
	}
}

// TestFFTInverseRealScale pins Inverse's 1/n as a real scale: an impulse of
// 1+∞i comes back as 1/n+∞i in every sample. A complex scale, (1+∞i)·(1/n+0i),
// made the real part ∞·0 = NaN.
func TestFFTInverseRealScale(t *testing.T) {
	for _, n := range []int{2, 16, 2048} {
		f, _ := NewFFT(n)
		x := make([]complex128, n)
		x[0] = complex(1, math.Inf(1))
		if err := f.Inverse(x); err != nil {
			t.Fatal(err)
		}
		for i, v := range x {
			if real(v) != 1/float64(n) || !math.IsInf(imag(v), 1) {
				t.Fatalf("n=%d: sample %d = %v, want (%v+Inf i)", n, i, v, 1/float64(n))
			}
		}
	}
}

func TestOFDMRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, bw := range []Bandwidth{BW1_4MHz, BW3MHz, BW5MHz, BW10MHz, BW15MHz, BW20MHz} {
		o, err := NewOFDMModulator(bw)
		if err != nil {
			t.Fatal(err)
		}
		n, used := o.FFTSize(), o.UsedSubcarriers()
		sc := randSymbols(rng, used)
		td := make([]complex128, n)
		if err := o.Symbol(td, sc); err != nil {
			t.Fatal(err)
		}
		back := make([]complex128, used)
		if err := o.Demodulate(back, td); err != nil {
			t.Fatal(err)
		}
		// Two passes, as in TestFFTRoundtrip, over a spectrum of norm ‖sc‖.
		tol := fftErrBound(n) * (2 + fftErrBound(n)) * norm2(sc)
		for i := range sc {
			if cmplx.Abs(back[i]-sc[i]) > tol {
				t.Fatalf("bw=%v subcarrier %d: %v vs %v", bw, i, back[i], sc[i])
			}
		}

		// The same layout through the oracle, at the tolerance it always had.
		oracle := newFFTOracle(n)
		half := used / 2
		bins := make([]complex128, n)
		copy(bins[n-half:], sc[:half])
		copy(bins[1:], sc[half:])
		_ = oracle.Inverse(bins)
		_ = oracle.Forward(bins)
		got := append(bins[n-half:], bins[1:1+half]...)
		for i := range sc {
			if cmplx.Abs(got[i]-sc[i]) > 1e-9 {
				t.Fatalf("oracle bw=%v subcarrier %d: %v vs %v", bw, i, got, sc[i])
			}
		}
	}
}

func TestOFDMDemodulateNoAlloc(t *testing.T) {
	o, err := NewOFDMModulator(BW20MHz)
	if err != nil {
		t.Fatal(err)
	}
	samples := randSymbols(rand.New(rand.NewSource(10)), o.FFTSize())
	dst := make([]complex128, o.UsedSubcarriers())
	if a := testing.AllocsPerRun(20, func() { _ = o.Demodulate(dst, samples) }); a != 0 {
		t.Fatalf("Demodulate allocates %v times per symbol", a)
	}
}

func TestOFDMDimensionErrors(t *testing.T) {
	o, _ := NewOFDMModulator(BW10MHz)
	if err := o.Symbol(make([]complex128, 4), make([]complex128, o.UsedSubcarriers())); err == nil {
		t.Fatal("wrong dst size accepted")
	}
	if err := o.Demodulate(make([]complex128, o.UsedSubcarriers()), make([]complex128, 4)); err == nil {
		t.Fatal("wrong sample count accepted")
	}
}

// fftSpecials are the inputs a float32 butterfly gets wrong first: signed
// zeros, float32 subnormals, values that overflow when summed, infinities
// and NaN.
var fftSpecials = []float64{
	0, math.Copysign(0, -1), 1e-40, -3e-45, 0x1p-126, 3e38, -3.4e38, 1e300,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// sameBits reports whether two planes' values agree bit for bit, a NaN
// matching any NaN: x86 keeps the first operand's NaN, and the compiler
// orders commutative operands freely.
func sameBits[F float32 | float64](a, b F) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return a == b && math.Signbit(float64(a)) == math.Signbit(float64(b))
}

// checkFFTTwin runs x through each AVX2 kernel of the FFT and through its
// pure-Go twin, and requires the same bits from both:
//   - the load, plain and with re and im swapped (Inverse's way in), where
//     the plan is large enough for the kernel (n ≥ 32; below it the
//     dispatcher runs FFT.load, which the first comparison then pins);
//   - the stages with half ≥ 8, on copies of the loaded planes;
//   - the widening of the transformed planes into bins, scaled by 1 and by
//     1/n, over the whole plan and over windows whose lengths leave every
//     remainder mod 4 to the pure-Go tail, as Demodulate's bin windows do.
func checkFFTTwin(t *testing.T, f *FFT, x []complex128) {
	t.Helper()
	n := f.n
	diff := func(what string, ar, ai, br, bi []float32) {
		t.Helper()
		for i := range ar {
			if !sameBits(ar[i], br[i]) || !sameBits(ai[i], bi[i]) {
				t.Fatalf("n=%d %s: bin %d = %v, pure Go %v", n, what, i, complex(ar[i], ai[i]), complex(br[i], bi[i]))
			}
		}
	}
	for _, swap := range []bool{true, false} {
		in := slices.Clone(x)
		f.loadPlanes(in, swap)
		f.runStages(in)
		re, im := slices.Clone(f.re), slices.Clone(f.im)
		in = slices.Clone(x)
		if swap {
			for i, v := range in {
				in[i] = complex(imag(v), real(v))
			}
		}
		f.load(in)
		if n >= 32 {
			lr, li := slices.Clone(f.re), slices.Clone(f.im)
			fftLoadAVX2(&lr[0], &li[0], &x[0], &f.base[0], n, swap)
			diff(fmt.Sprintf("load swap=%v", swap), lr, li, f.re, f.im)
		}
		if n >= 16 {
			sr, si := slices.Clone(f.re), slices.Clone(f.im)
			fftStagesAVX2(&sr[0], &si[0], &f.tw[0], n, &x[0], 16)
			fftStagesGo(f.re, f.im, f.tw)
			diff("stages", sr, si, f.re, f.im)
		}
		diff(fmt.Sprintf("load and stages swap=%v", swap), re, im, f.re, f.im)
	}
	for _, s := range []float64{1, 1 / float64(n)} {
		for _, l := range []int{1, 2, 3, 4, 5, 6, 7, n / 2, n - 1, n} {
			if l < 1 || l > n {
				continue
			}
			for _, off := range []int{0, n - l} {
				got, want := make([]complex128, l), make([]complex128, l)
				widen(got, f.re[off:], f.im[off:], s)
				widenGo(want, f.re[off:], f.im[off:], s)
				for k := range got {
					if !sameBits(real(got[k]), real(want[k])) || !sameBits(imag(got[k]), imag(want[k])) {
						t.Fatalf("n=%d widen len %d at %d by %v: bin %d = %v, pure Go %v", n, l, off, s, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// fftTwinInput is one seeded input of kind 0..5 for the twin checks:
// normal draws, zeros, float32 subnormals, draws near float32's top (sums
// overflow to ±Inf, and ∞−∞ makes NaN), and normal draws with every
// special sprinkled in.
func fftTwinInput(rng *rand.Rand, n, kind int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		switch kind {
		case 0: // random
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		case 1: // zero
		case 2: // float32 subnormals
			x[i] = complex(rng.NormFloat64()*1e-42, rng.NormFloat64()*1e-42)
		case 3: // huge
			x[i] = complex(rng.NormFloat64()*1e38, rng.NormFloat64()*1e38)
		default:
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			if rng.Intn(4) == 0 {
				x[i] = complex(fftSpecials[rng.Intn(len(fftSpecials))], fftSpecials[rng.Intn(len(fftSpecials))])
			}
		}
	}
	return x
}

func TestFFTAVX2MatchesGo(t *testing.T) {
	if !fftAsm {
		t.Skip("no AVX2 FFT path in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(2048))
	for n := 2; n <= 4096; n <<= 1 {
		f, err := NewFFT(n)
		if err != nil {
			t.Fatal(err)
		}
		for kind := 0; kind < 6; kind++ {
			checkFFTTwin(t, f, fftTwinInput(rng, n, kind))
		}
		for kind := 0; kind < 3; kind++ {
			checkFFTTwin(t, f, fftGoldenInput(n, kind, int64(n)*10+int64(kind)))
		}
	}
}

// fftGoldenRaw is fftGoldenSpecials as FuzzFFT's raw bytes.
func fftGoldenRaw() []byte {
	var raw []byte
	for _, v := range fftGoldenSpecials {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	return raw
}

// FuzzFFT: any input, at any size from 2 to 4096, gives the same bits from
// each AVX2 kernel of the FFT and from its pure-Go twin (checkFFTTwin), and
// an input in float32's normal range (every part at most 2¹⁰⁰, the whole
// not below 2⁻⁶⁰) transforms to within fftErrBound of the complex128
// oracle. The seeds cover every size with the golden digests' special
// values and at a float32-subnormal scale.
func FuzzFFT(f *testing.F) {
	f.Add(uint8(11), int64(1), int8(0), []byte{})
	f.Add(uint8(4), int64(2), int8(-60), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(7), int64(3), int8(90), []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add(uint8(1), int64(4), int8(0), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	for log2n := uint8(0); log2n < 12; log2n++ {
		f.Add(log2n, int64(log2n)+10, int8(0), fftGoldenRaw())
		f.Add(log2n, int64(log2n)+20, int8(-128), fftGoldenRaw())
	}
	f.Fuzz(func(t *testing.T, log2n uint8, seed int64, scale int8, raw []byte) {
		n := 2 << (log2n % 12)
		rng := rand.New(rand.NewSource(seed))
		c := math.Ldexp(1, int(scale))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(c*rng.NormFloat64(), c*rng.NormFloat64())
		}
		for i := 0; i+8 <= len(raw); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
			j := rng.Intn(n)
			if rng.Intn(2) == 0 {
				x[j] = complex(v, imag(x[j]))
			} else {
				x[j] = complex(real(x[j]), v)
			}
		}
		fft, err := NewFFT(n)
		if err != nil {
			t.Fatal(err)
		}
		if fftAsm {
			checkFFTTwin(t, fft, x)
		}
		for _, v := range x {
			if !(math.Abs(real(v)) <= 0x1p100 && math.Abs(imag(v)) <= 0x1p100) {
				return
			}
		}
		if norm2(x) < 0x1p-60 {
			return
		}
		want := slices.Clone(x)
		_ = newFFTOracle(n).Forward(want)
		if err := fft.Forward(x); err != nil {
			t.Fatal(err)
		}
		diff := make([]complex128, n)
		for i := range diff {
			diff[i] = x[i] - want[i]
		}
		if e, bound := norm2(diff), fftErrBound(n)*norm2(want); e > bound {
			t.Fatalf("n=%d: ‖X̂ − X‖₂ = %g above the bound %g", n, e, bound)
		}
	})
}

func TestBandwidthTable(t *testing.T) {
	cases := []struct {
		bw   Bandwidth
		prb  int
		fft  int
		mhz  float64
		rate float64
	}{
		{BW1_4MHz, 6, 128, 1.4, 1.92e6},
		{BW5MHz, 25, 512, 5, 7.68e6},
		{BW10MHz, 50, 1024, 10, 15.36e6},
		{BW15MHz, 75, 2048, 15, 30.72e6}, // radix-2: 4/3 of the conventional 1536
		{BW20MHz, 100, 2048, 20, 30.72e6},
	}
	for _, c := range cases {
		if c.bw.PRB() != c.prb || c.bw.FFTSize() != c.fft || c.bw.MHz() != c.mhz {
			t.Fatalf("bandwidth %v: got prb=%d fft=%d mhz=%v", c.bw, c.bw.PRB(), c.bw.FFTSize(), c.bw.MHz())
		}
		if c.bw.SampleRate() != c.rate {
			t.Fatalf("bandwidth %v: sample rate %v, want %v", c.bw, c.bw.SampleRate(), c.rate)
		}
		if err := c.bw.Validate(); err != nil {
			t.Fatalf("standard bandwidth %v rejected: %v", c.bw, err)
		}
	}
	if err := Bandwidth(33).Validate(); err == nil {
		t.Fatal("nonstandard bandwidth accepted")
	}
}

// Forward computes the in-place forward DFT of x (len must equal Size).
func (f *FFT) Forward(x []complex128) error {
	if len(x) != f.n {
		return fmt.Errorf("phy: FFT input length %d != plan size %d: %w", len(x), f.n, ErrBadParameter)
	}
	f.loadPlanes(x, false)
	f.runStages(x)
	widen(x, f.re, f.im, 1)
	return nil
}
