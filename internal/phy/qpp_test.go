package phy

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestBlockSizeTable(t *testing.T) {
	if len(validBlockSizes) != 188 {
		t.Fatalf("got %d legal block sizes, want 188 (36.212 table 5.1.3-3)", len(validBlockSizes))
	}
	if validBlockSizes[0] != MinBlockSize || validBlockSizes[len(validBlockSizes)-1] != MaxBlockSize {
		t.Fatalf("bounds %d..%d, want %d..%d", validBlockSizes[0], validBlockSizes[len(validBlockSizes)-1], MinBlockSize, MaxBlockSize)
	}
	for _, k := range []int{40, 48, 512, 528, 1024, 1056, 2048, 2112, 6144} {
		if !IsValidBlockSize(k) {
			t.Fatalf("%d should be legal", k)
		}
	}
	for _, k := range []int{39, 41, 520, 1040, 2080, 6145, 0, -8} {
		if IsValidBlockSize(k) {
			t.Fatalf("%d should be illegal", k)
		}
	}
}

func TestNearestBlockSize(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 40}, {40, 40}, {41, 48}, {513, 528}, {6144, 6144},
	}
	for _, c := range cases {
		got, err := NearestBlockSize(c.in)
		if err != nil || got != c.want {
			t.Fatalf("NearestBlockSize(%d) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	if _, err := NearestBlockSize(6145); err == nil {
		t.Fatal("oversized block accepted")
	}
}

func TestQPPIsPermutationAllSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaver check skipped in -short mode")
	}
	for _, k := range validBlockSizes {
		q, err := NewQPPInterleaver(k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		seen := make([]bool, k)
		for i := 0; i < k; i++ {
			p := q.Perm(i)
			if p < 0 || p >= k || seen[p] {
				t.Fatalf("K=%d: not a permutation at %d", k, i)
			}
			seen[p] = true
			if q.Inv(p) != i {
				t.Fatalf("K=%d: inverse wrong at %d", k, i)
			}
		}
	}
}

func TestQPPPolynomialForm(t *testing.T) {
	// The permutation must actually be (f1·i + f2·i²) mod K.
	for _, k := range []int{40, 104, 512, 1056, 6144} {
		q, err := NewQPPInterleaver(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			want := (q.F1*i + q.F2*i*i) % k
			if q.Perm(i) != want {
				t.Fatalf("K=%d i=%d: perm %d != polynomial %d", k, i, q.Perm(i), want)
			}
		}
	}
}

func TestQPPRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{40, 136, 1024, 6144} {
		q, err := NewQPPInterleaver(k)
		if err != nil {
			t.Fatal(err)
		}
		src := randBits(rng, k)
		inter := make([]byte, k)
		back := make([]byte, k)
		if err := q.Interleave(inter, src); err != nil {
			t.Fatal(err)
		}
		if err := q.Deinterleave(back, inter); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if back[i] != src[i] {
				t.Fatalf("K=%d: roundtrip mismatch at %d", k, i)
			}
		}
	}
}

func TestQPPCacheIdentity(t *testing.T) {
	a, _ := NewQPPInterleaver(512)
	b, _ := NewQPPInterleaver(512)
	if a != b {
		t.Fatal("interleaver for the same K not cached")
	}
}

func TestQPPRejectsIllegalK(t *testing.T) {
	if _, err := NewQPPInterleaver(41); err == nil {
		t.Fatal("illegal K accepted")
	}
	q, _ := NewQPPInterleaver(40)
	if err := q.Interleave(make([]byte, 39), make([]byte, 40)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestQPPSpread(t *testing.T) {
	// Interleavers must separate adjacent input bits; minimum output
	// distance of adjacent inputs should comfortably exceed 1 for all but
	// tiny K (the spread property that decorrelates constituent decoders).
	q, _ := NewQPPInterleaver(1024)
	minDist := q.K
	for i := 0; i+1 < q.K; i++ {
		d := q.Inv(i+1) - q.Inv(i)
		if d < 0 {
			d = -d
		}
		if d < minDist {
			minDist = d
		}
	}
	if minDist < 8 {
		t.Fatalf("adjacent-bit spread %d too small", minDist)
	}
}

// Deinterleave inverts Interleave: dst[π(i)] = src[i].
func (q *QPPInterleaver) Deinterleave(dst, src []byte) error {
	if len(dst) != q.K || len(src) != q.K {
		return fmt.Errorf("phy: deinterleave length mismatch (dst %d, src %d, K %d): %w", len(dst), len(src), q.K, ErrBadParameter)
	}
	for i, p := range q.perm {
		dst[p] = src[i]
	}
	return nil
}

// Inv returns the inverse permutation at i.
func (q *QPPInterleaver) Inv(i int) int { return int(q.inverse[i]) }
