package phy

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference ingest: one per-element loop over one lane, a quantizer
// that branches four ways and an |LLR| sum taken sequentially — the int16
// ingest before it went branch-free, tiled and vectorized. Every production
// ingest path is held to it.

// quantizeLLRRef converts one float32 LLR to saturated Q6 fixed point,
// rounding half away from zero.
func quantizeLLRRef(v float32) int16 {
	x := v * i16One
	switch {
	case x >= i16LLRSat:
		return i16LLRSat
	case x <= -i16LLRSat:
		return -i16LLRSat
	case x >= 0:
		return int16(x + 0.5)
	default:
		return int16(x - 0.5)
	}
}

// llrAbsSumRef sums |LLR| over the three streams in one sequential pass.
func llrAbsSumRef(s0, s1, s2 []float32) float64 {
	var sum float64
	for _, s := range [3][]float32{s0, s1, s2} {
		for _, v := range s {
			sum += math.Abs(float64(v))
		}
	}
	return sum
}

// llrGainRef is llrGain over the sequential sum.
func llrGainRef(s0, s1, s2 []float32) float32 {
	n := len(s0) + len(s1) + len(s2)
	if n == 0 {
		return 1
	}
	r := llrAbsSumRef(s0, s1, s2) / (float64(n) * i16GainTarget)
	if !(r > 1) {
		return 1
	}
	frac, exp := math.Frexp(r)
	if frac == 0.5 {
		exp--
	}
	return float32(math.Ldexp(1, -exp))
}

// ingestI16Ref quantizes one code block at gain g into lane b of the
// stride-w arrays: data, known-bit pins, tails and the interleaved
// systematic data.
func ingestI16Ref(ls1, lp1, ls2, lp2 []int16, w, b int, q *QPPInterleaver, d0, d1, d2 []float32, known int, g float32) {
	k := q.K
	for t := 0; t < k; t++ {
		ls1[t*w+b] = quantizeLLRRef(d0[t] * g)
		lp1[t*w+b] = quantizeLLRRef(d1[t] * g)
		lp2[t*w+b] = quantizeLLRRef(d2[t] * g)
	}
	for t := 0; t < known; t++ {
		ls1[t*w+b] = i16LLRSat
	}
	qt := func(v float32) int16 { return quantizeLLRRef(v * g) }
	t0, t1, t2 := d0[k:], d1[k:], d2[k:]
	ls1[(k+0)*w+b], lp1[(k+0)*w+b] = qt(t0[0]), qt(t1[0])
	ls1[(k+1)*w+b], lp1[(k+1)*w+b] = qt(t2[0]), qt(t0[1])
	ls1[(k+2)*w+b], lp1[(k+2)*w+b] = qt(t1[1]), qt(t2[1])
	ls2[(k+0)*w+b], lp2[(k+0)*w+b] = qt(t0[2]), qt(t1[2])
	ls2[(k+1)*w+b], lp2[(k+1)*w+b] = qt(t2[2]), qt(t0[3])
	ls2[(k+2)*w+b], lp2[(k+2)*w+b] = qt(t1[3]), qt(t2[3])
	for i := 0; i < k; i++ {
		ls2[i*w+b] = ls1[q.Perm(i)*w+b]
	}
}

// gainOrderTie reports whether a block's mean |LLR| sits on an octave
// boundary of the gain to within a float64 sum's rounding: there, and only
// there, the sequential and the 16-way sums may round to adjacent gains.
func gainOrderTie(s0, s1, s2 []float32) bool {
	n := len(s0) + len(s1) + len(s2)
	frac, _ := math.Frexp(llrAbsSumRef(s0, s1, s2) / (float64(n) * i16GainTarget))
	return math.Abs(frac-0.5) < 1e-9 || math.Abs(frac-1) < 1e-9
}

// ingestRig holds the decoders checkIngestI16 ingests through, reused
// across calls: lanes a call does not use keep stale values nobody reads.
type ingestRig struct {
	scalar *i16Buffers
	batch  map[int]*BatchDecoderI16
}

func newIngestRig() *ingestRig {
	return &ingestRig{scalar: newI16Buffers(), batch: map[int]*BatchDecoderI16{}}
}

// checkIngestI16 holds every production ingest path to ingestI16Ref on the
// given lanes: the scalar kernel's (width 1, lane by lane), the lockstep
// kernel's at width 8 (the AVX2 kernel on AVX2 hosts) and, for other lane
// counts, at width n (pure-Go tiles). Gains must agree with the sequential
// sum's except on an octave boundary; the reference then quantizes at the
// production gain, so quantization and demultiplexing are always checked
// exactly.
func checkIngestI16(t *testing.T, rig *ingestRig, q *QPPInterleaver, d0, d1, d2 [][]float32, known []int) {
	t.Helper()
	k, n := q.K, len(d0)
	steps := k + turboTail
	gains := make([]float32, n)
	for b := range gains {
		s0 := d0[b][known[b]:]
		gains[b] = llrGain(s0, d1[b], d2[b])
		if ref := llrGainRef(s0, d1[b], d2[b]); gains[b] != ref && !gainOrderTie(s0, d1[b], d2[b]) {
			t.Fatalf("K=%d lane %d: gain %v, sequential-sum gain %v", k, b, gains[b], ref)
		}
	}
	want := func(w int, lanes ...int) [4][]int16 {
		var a [4][]int16
		for s := range a {
			a[s] = make([]int16, steps*w)
		}
		for j, b := range lanes {
			ingestI16Ref(a[0], a[1], a[2], a[3], w, j, q, d0[b], d1[b], d2[b], known[b], gains[b])
		}
		return a
	}
	diff := func(path string, got, exp [4][]int16, w, lanes int) {
		t.Helper()
		for s, name := range [4]string{"ls1", "lp1", "ls2", "lp2"} {
			for i := 0; i < steps; i++ {
				for b := 0; b < lanes; b++ {
					if g, e := got[s][i*w+b], exp[s][i*w+b]; g != e {
						t.Fatalf("K=%d n=%d %s: %s step %d lane %d = %d, reference %d", k, n, path, name, i, b, g, e)
					}
				}
			}
		}
	}

	sb := rig.scalar
	for b := 0; b < n; b++ {
		sb.ingest(q, d0[b], d1[b], d2[b], known[b])
		diff(fmt.Sprintf("scalar lane %d", b), [4][]int16{sb.ls1, sb.lp1, sb.ls2, sb.lp2}, want(1, b), 1, 1)
	}
	all := make([]int, n)
	for b := range all {
		all[b] = b
	}
	widths := []int{8}
	if n >= 2 && n != 8 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		bd := rig.batch[w]
		if bd == nil {
			var err error
			if bd, err = NewBatchDecoderI16(w); err != nil {
				t.Fatal(err)
			}
			rig.batch[w] = bd
		}
		bd.q = q
		bd.ingest(n, d0, d1, d2, known)
		diff(fmt.Sprintf("width %d", w), [4][]int16{bd.ls1, bd.lp1, bd.ls2, bd.lp2}, want(w, all...), w, n)
	}
}

// ingestSpecials are the float32 inputs a quantizer or a sum gets wrong
// first: signed zeros, infinities, NaN, subnormals, exact rounding ties
// (m+½)/64 and the saturation point ±2047/64, each tie and saturation value
// also one ulp either side.
func ingestSpecials(finite bool) []float32 {
	inf := float32(math.Inf(1))
	sub := math.Float32frombits(0x007fffff) // largest subnormal
	v := []float32{0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, sub, -sub}
	if !finite {
		v = append(v, inf, -inf, float32(math.NaN()))
	}
	edges := []float32{float32(i16LLRSat) / i16One}
	for _, m := range []int{0, 1, 7, 100, 1000, 2046} {
		edges = append(edges, (float32(m)+0.5)/i16One)
	}
	for _, e := range edges {
		for _, x := range []float32{e, -e} {
			v = append(v, x, math.Nextafter32(x, inf), math.Nextafter32(x, -inf))
		}
	}
	return v
}

// TestIngestI16MatchesReference runs the special values through every
// ingest path at K ∈ {40, 1056, 6144}, 1–8 lanes, with no known bits and
// with all K systematic values known. Lanes cycle three kinds: every
// special (NaN and ±Inf hold the gain at 1), the finite ones alone, and the
// finite ones ×16 among ±200 observations, which puts the gain at 1/16 —
// so the ties and the saturation point are met exactly on the scaled path
// too.
func TestIngestI16MatchesReference(t *testing.T) {
	all, finite := ingestSpecials(false), ingestSpecials(true)
	rig := newIngestRig()
	for _, k := range []int{40, 1056, 6144} {
		q, err := NewQPPInterleaver(k)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 8; n++ {
			var d [3][][]float32
			for s := range d {
				d[s] = make([][]float32, n)
				for b := range d[s] {
					lane := make([]float32, k+4)
					for i := range lane {
						j := i + 5*s + 3*b
						switch b % 3 {
						case 0:
							lane[i] = all[j%len(all)]
						case 1:
							lane[i] = finite[j%len(finite)]
						default:
							lane[i] = float32(200 - 400*(i%2))
							if i%4 == 0 {
								lane[i] = 16 * finite[j%len(finite)]
							}
						}
					}
					d[s][b] = lane
				}
			}
			for _, allKnown := range []bool{false, true} {
				known := make([]int, n)
				for b := range known {
					if allKnown {
						known[b] = k
					}
					if b%3 == 2 {
						if g := llrGain(d[0][b][known[b]:], d[1][b], d[2][b]); g != 1.0/16 {
							t.Fatalf("K=%d lane %d: gain %v, the scaled lane needs 1/16", k, b, g)
						}
					}
				}
				checkIngestI16(t, rig, q, d[0], d[1], d[2], known)
			}
		}
	}
}

// FuzzIngestI16 fuzzes the same property: noisy lanes at a fuzzed scale
// (gains 1 … 1/32), arbitrary float32 bit patterns written over them, any
// known-bit count, and 1–8 lanes must ingest exactly as the reference
// does on every path.
func FuzzIngestI16(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(0), uint16(0), uint8(0), []byte{0, 0, 0xc0, 0x7f})
	f.Add(int64(2), uint8(2), uint8(1), uint16(7), uint8(9), []byte{0, 0, 0x80, 0x7f, 1, 0, 0, 0})
	f.Add(int64(3), uint8(0), uint8(2), uint16(40), uint8(4), []byte{0, 0, 0x80, 0x3c, 0, 0, 0x80, 0xbc})
	f.Add(int64(4), uint8(4), uint8(3), uint16(1056), uint8(11), []byte{0xff, 0xff, 0x7f, 0x00})
	rig := newIngestRig()
	f.Fuzz(func(t *testing.T, seed int64, lanes, kSel uint8, known uint16, scale uint8, raw []byte) {
		k := [4]int{40, 48, 512, 1056}[kSel%4]
		n := 1 + int(lanes)%8
		q, err := NewQPPInterleaver(k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		c := float32(math.Ldexp(1, int(scale%10))) // mean |LLR| ≈ 4 … 2000
		var d [3][][]float32
		for s := range d {
			d[s] = make([][]float32, n)
			for b := range d[s] {
				lane := make([]float32, k+4)
				for i := range lane {
					lane[i] = c * float32(4*float64(1-2*rng.Intn(2))+2*rng.NormFloat64())
				}
				d[s][b] = lane
			}
		}
		for i := 0; i+4 <= len(raw); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
			d[rng.Intn(3)][rng.Intn(n)][rng.Intn(k+4)] = v
		}
		kn := make([]int, n)
		for b := range kn {
			kn[b] = (int(known) + 13*b) % (k + 1)
		}
		checkIngestI16(t, rig, q, d[0], d[1], d[2], kn)
	})
}

// BenchmarkIngestI16 measures the ingest boundary alone at K=6144: one
// block through the scalar kernel's (w1) and eight through the lockstep
// kernel's at width 8 (w8: the AVX2 kernel on AVX2 hosts).
func BenchmarkIngestI16(b *testing.B) {
	const k = 6144
	rng := rand.New(rand.NewSource(17))
	_, l0, l1, l2 := batchTestVectors(b, rng, k, 8, 0.8)
	q, err := NewQPPInterleaver(k)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("w1", func(b *testing.B) {
		buf := newI16Buffers()
		b.SetBytes(k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.ingest(q, l0[i%8], l1[i%8], l2[i%8], 0)
		}
	})
	b.Run("w8", func(b *testing.B) {
		bd, err := NewBatchDecoderI16(8)
		if err != nil {
			b.Fatal(err)
		}
		bd.q = q
		b.SetBytes(8 * k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bd.ingest(8, l0, l1, l2, nil)
		}
	})
}
