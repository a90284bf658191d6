package phy

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

const fftGoldenFile = "testdata/fft_golden.txt"

// fftGoldenSpecials are the finite values fftGoldenInput sprinkles in.
var fftGoldenSpecials = []float64{
	0, math.Copysign(0, -1), 1e-40, -3e-45, 0x1p-126, 5e-324, -0x1p-1070,
	0x1p100, -0x1p100,
}

// fftGoldenInput is the seeded input of one golden transform: normal draws,
// and for kind > 0 every fourth entry replaced by a value a load or a store
// could get wrong: a signed zero, a float32 or float64 subnormal, or ±2¹⁰⁰.
// kind 2 scales the draws into float32's subnormal range. Every entry is
// finite.
func fftGoldenInput(n, kind int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	scale := 1.0
	if kind == 2 {
		scale = 1e-42
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
		if kind > 0 && rng.Intn(4) == 0 {
			x[i] = complex(fftGoldenSpecials[rng.Intn(len(fftGoldenSpecials))], fftGoldenSpecials[rng.Intn(len(fftGoldenSpecials))])
		}
	}
	return x
}

// hashComplex folds the bits of x into h.
func hashComplex(h hash.Hash, x []complex128) {
	var b [16]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
}

// checkGoldenLines compares lines with the golden file at path, or rewrites
// the file under -update-golden.
func checkGoldenLines(t *testing.T, path string, lines []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s holds %d digests, the sweep makes %d", path, len(want), len(lines))
	}
	bad := 0
	for i := range want {
		if want[i] != lines[i] {
			if bad++; bad <= 5 {
				t.Errorf("digest %d differs:\n  golden %s\n  got    %s", i, want[i], lines[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d digests differ from %s", bad, len(want), path)
	}
}

// TestFFTGoldenDigests pins FFT.Forward, FFT.Inverse and
// OFDMModulator.Demodulate bit for bit against digests of the float32 FFT
// as it stood before its load and its bin stores were vectorised: Forward
// and Inverse at every power of two from 2 to 4096 on three seeded inputs
// each (fftGoldenInput), and Demodulate at every bandwidth whose modulator
// could then be built, on normal and on special-laden samples. The default
// build and the pure-Go build (-tags purego) must both reproduce them.
func TestFFTGoldenDigests(t *testing.T) {
	var lines []string
	for n := 2; n <= 4096; n <<= 1 {
		f, err := NewFFT(n)
		if err != nil {
			t.Fatal(err)
		}
		for kind := 0; kind < 3; kind++ {
			for _, dir := range []struct {
				name string
				run  func([]complex128) error
			}{{"forward", f.Forward}, {"inverse", f.Inverse}} {
				x := fftGoldenInput(n, kind, int64(n)*10+int64(kind))
				if err := dir.run(x); err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				hashComplex(h, x)
				lines = append(lines, fmt.Sprintf("n=%d kind=%d %s %x", n, kind, dir.name, h.Sum(nil)))
			}
		}
	}
	for _, bw := range []Bandwidth{BW1_4MHz, BW3MHz, BW5MHz, BW10MHz, BW20MHz} {
		o, err := NewOFDMModulator(bw)
		if err != nil {
			t.Fatal(err)
		}
		for kind := 0; kind < 2; kind++ {
			h := sha256.New()
			dst := make([]complex128, o.UsedSubcarriers())
			for sym := 0; sym < 3; sym++ {
				samples := fftGoldenInput(o.FFTSize(), kind, int64(bw)*100+int64(kind)*10+int64(sym))
				if err := o.Demodulate(dst, samples); err != nil {
					t.Fatal(err)
				}
				hashComplex(h, dst)
			}
			lines = append(lines, fmt.Sprintf("demodulate prb=%d kind=%d %x", bw.PRB(), kind, h.Sum(nil)))
		}
	}
	checkGoldenLines(t, fftGoldenFile, lines)
}
