package phy

import (
	"math"
	"math/bits"
)

// fftOracle is the complex128 radix-2 decimation-in-time FFT that FFT
// replaced, kept as the accuracy oracle the float32 transform is measured
// against: the same butterflies in float64, which for the sizes OFDM uses is
// exact to ~1e-15 of the signal.
type fftOracle struct {
	n        int
	twiddle  []complex128 // twiddle[k] = exp(-2πik/n), k < n/2
	itwiddle []complex128 // conjugates, so Inverse has no per-butterfly branch
	rev      []int32      // bit-reversal permutation
}

func newFFTOracle(n int) *fftOracle {
	f := &fftOracle{
		n:        n,
		twiddle:  make([]complex128, n/2),
		itwiddle: make([]complex128, n/2),
		rev:      make([]int32, n),
	}
	for k := range f.twiddle {
		ang := -2 * math.Pi * float64(k) / float64(n)
		f.twiddle[k] = complex(math.Cos(ang), math.Sin(ang))
		f.itwiddle[k] = complex(math.Cos(ang), -math.Sin(ang))
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range f.rev {
		f.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	return f
}

func (f *fftOracle) Forward(x []complex128) error {
	f.transform(x, f.twiddle)
	return nil
}

func (f *fftOracle) Inverse(x []complex128) error {
	f.transform(x, f.itwiddle)
	inv := 1 / float64(f.n)
	for i, v := range x {
		x[i] = complex(real(v)*inv, imag(v)*inv)
	}
	return nil
}

func (f *fftOracle) transform(x []complex128, twiddle []complex128) {
	n := f.n
	for i, r := range f.rev {
		if int32(i) < r {
			x[i], x[r] = x[r], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := twiddle[tw]
				t := w * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
				tw += step
			}
		}
	}
}
