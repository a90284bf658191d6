//go:build amd64 && !purego

package phy

import (
	"math"
	"math/rand"
	"testing"
)

// The AVX2 glue kernels against their pure-Go twins in the same binary: the
// lockstep decoder runs only one of each on a given host, so without these
// the other is checked only on a different build.

// randIngestLanes returns n lanes of k+4 noisy LLRs at mean |LLR| ≈ 4c with
// the special values sprinkled over them.
func randIngestLanes(rng *rand.Rand, n, k int, c float32) [][]float32 {
	sp := ingestSpecials(false)
	d := make([][]float32, n)
	for b := range d {
		d[b] = make([]float32, k+4)
		for i := range d[b] {
			d[b][i] = c * float32(4*float64(1-2*rng.Intn(2))+2*rng.NormFloat64())
			if rng.Intn(8) == 0 {
				d[b][i] = sp[rng.Intn(len(sp))] * c
			}
		}
	}
	return d
}

func TestIngestAVX2MatchesGo(t *testing.T) {
	if !batchAsm {
		t.Skip("CPU without AVX2")
	}
	rng := rand.New(rand.NewSource(8080))
	for _, k := range []int{40, 1056, 6144} {
		for n := 1; n <= 8; n++ {
			d0, d1, d2 := randIngestLanes(rng, n, k, 8), randIngestLanes(rng, n, k, 8), randIngestLanes(rng, n, k, 8)
			var g [maxBatchWidth]float32
			for b := 0; b < n; b++ {
				g[b] = float32(math.Ldexp(1, -rng.Intn(6)))
			}
			var got, want [3][]int16
			for s := range got {
				got[s] = make([]int16, k*8)
				want[s] = make([]int16, k*8)
				for i := range got[s] {
					got[s][i] = -1 // dead lanes must come out zero
				}
			}
			ingestI16AVX2(got[0], got[1], got[2], k, n, d0, d1, d2, &g)
			for b := 0; b < n; b++ {
				ingestI16(want[0], want[1], want[2], 8, b, 0, k, d0[b], d1[b], d2[b], g[b])
			}
			for s := range got {
				for i := range got[s] {
					if got[s][i] != want[s][i] {
						t.Fatalf("K=%d n=%d stream %d: step %d lane %d = %d, pure Go %d", k, n, s, i/8, i%8, got[s][i], want[s][i])
					}
				}
			}
		}
	}
}

func TestAbsSumAVX2MatchesGo(t *testing.T) {
	if !batchAsm {
		t.Skip("CPU without AVX2")
	}
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{16, 47, 18437} {
		for _, c := range []float32{1, 1e30, 1e-30} {
			s := randIngestLanes(rng, 1, n-4, c)[0]
			var got, want [gainSums]float64
			for j := range got {
				got[j] = rng.Float64()
				want[j] = got[j]
			}
			absSum(&got, s) // absSumF32x16 over the leading multiple of 16
			for i, v := range s {
				want[i%gainSums] += math.Abs(float64(v))
			}
			for j := range got {
				if got[j] != want[j] && !(math.IsNaN(got[j]) && math.IsNaN(want[j])) {
					t.Fatalf("n=%d scale %g: partial sum %d = %v, pure Go %v", n, c, j, got[j], want[j])
				}
			}
		}
	}
}

func TestHardAVX2MatchesGo(t *testing.T) {
	if !batchAsm {
		t.Skip("CPU without AVX2")
	}
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{40, 6144} {
		ls, ext, apri := make([]int16, k*8), make([]int16, k*8), make([]int16, k*8)
		for i := range ls {
			ls[i] = int16(rng.Intn(2*i16LLRSat+1) - i16LLRSat)
			ext[i] = int16(rng.Intn(2*i16ExtSat+1) - i16ExtSat)
			apri[i] = int16(rng.Intn(2*i16ExtSat+1) - i16ExtSat)
			switch rng.Intn(4) {
			case 0: // sums of exactly 0 and -1
				apri[i] = -ls[i] - ext[i] - int16(rng.Intn(2))
			case 1: // the extremes
				ls[i], ext[i], apri[i] = -i16LLRSat, -i16ExtSat, -i16ExtSat
			}
		}
		for n := 1; n <= 8; n++ {
			outs := make([][]byte, n)
			for j := range outs {
				outs[j] = make([]byte, k)
				for i := range outs[j] {
					outs[j][i] = 0xaa
				}
			}
			hardI16AVX2(outs, ls, ext, apri, k)
			for j := range outs {
				for i, got := range outs[j] {
					want := byte(uint32(int32(ls[i*8+j])+int32(ext[i*8+j])+int32(apri[i*8+j])) >> 31)
					if got != want {
						t.Fatalf("K=%d n=%d: lane %d step %d = %d, pure Go %d", k, n, j, i, got, want)
					}
				}
			}
		}
	}
}
