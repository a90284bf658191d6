package phy

import (
	"fmt"
	"sort"
	"sync"
)

// Quadratic permutation polynomial (QPP) interleaving for the LTE turbo code
// (36.212 §5.1.3.2.3): π(i) = (f1·i + f2·i²) mod K. 3GPP tabulates (f1, f2)
// per block size K; rather than embedding the 188-row table, we derive valid
// coefficients deterministically per K using the Sun–Takeshita criterion
// (f1 coprime to K and every prime factor of K dividing f2) and verify the
// permutation property exhaustively at construction. The resulting
// interleaver has the same contention-free structure and spread properties
// the decoder cost model cares about; DESIGN.md §2 records the substitution.

// validBlockSizes holds the 188 legal turbo code block sizes K from 36.212
// table 5.1.3-3, generated by its stride rule.
var validBlockSizes = buildBlockSizes()

func buildBlockSizes() []int {
	var ks []int
	for k := 40; k <= 512; k += 8 {
		ks = append(ks, k)
	}
	for k := 528; k <= 1024; k += 16 {
		ks = append(ks, k)
	}
	for k := 1056; k <= 2048; k += 32 {
		ks = append(ks, k)
	}
	for k := 2112; k <= 6144; k += 64 {
		ks = append(ks, k)
	}
	return ks
}

// MinBlockSize and MaxBlockSize bound the legal turbo block sizes.
const (
	MinBlockSize = 40
	MaxBlockSize = 6144
)

// NearestBlockSize returns the smallest legal turbo block size ≥ n, or an
// error when n exceeds MaxBlockSize.
func NearestBlockSize(n int) (int, error) {
	if n > MaxBlockSize {
		return 0, fmt.Errorf("phy: block of %d bits exceeds max turbo block %d: %w", n, MaxBlockSize, ErrBadParameter)
	}
	i := sort.SearchInts(validBlockSizes, n)
	return validBlockSizes[i], nil
}

// IsValidBlockSize reports whether k is a legal turbo block size.
func IsValidBlockSize(k int) bool {
	i := sort.SearchInts(validBlockSizes, k)
	return i < len(validBlockSizes) && validBlockSizes[i] == k
}

// QPPInterleaver holds the forward and inverse permutations for one block
// size. Construct with NewQPPInterleaver; instances are immutable and safe
// for concurrent use.
type QPPInterleaver struct {
	K       int
	F1, F2  int
	perm    []int32 // perm[i] = π(i): read position in the input
	inverse []int32
}

var qppCache sync.Map // int → *QPPInterleaver

// NewQPPInterleaver returns the interleaver for block size k, which must be
// a legal turbo block size. Results are cached process-wide.
func NewQPPInterleaver(k int) (*QPPInterleaver, error) {
	if !IsValidBlockSize(k) {
		return nil, fmt.Errorf("phy: %d is not a legal turbo block size: %w", k, ErrBadParameter)
	}
	if v, ok := qppCache.Load(k); ok {
		return v.(*QPPInterleaver), nil
	}
	q, err := buildQPP(k)
	if err != nil {
		return nil, err
	}
	actual, _ := qppCache.LoadOrStore(k, q)
	return actual.(*QPPInterleaver), nil
}

// radical returns the product of the distinct prime factors of n.
func radical(n int) int {
	r := 1
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			r *= p
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		r *= n
	}
	return r
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// buildQPP searches (f1, f2) satisfying the QPP permutation criterion for K
// and materializes the permutation tables. Candidates must also satisfy a
// spread criterion — adjacent bits in either domain land far apart in the
// other — since low-spread interleavers cripple turbo performance (the 3GPP
// table guarantees this property; our search enforces it explicitly). The
// search is deterministic, so every process derives identical interleavers.
func buildQPP(k int) (*QPPInterleaver, error) {
	rad := radical(k)
	seen := make([]bool, k)
	perm := make([]int32, k)
	// Target spread ≈ √(2K)/2, the ballpark the standardized QPPs achieve.
	minSpread := isqrt(2*k) / 2
	if minSpread < 4 {
		minSpread = 4
	}
	// Start f1 near √(2K): large multipliers disperse adjacent bits.
	f1start := isqrt(2*k) | 1
	tried := 0
	for f1 := f1start; tried < k; f1 += 2 {
		if f1 >= k {
			f1 = 3
		}
		tried++
		if gcd(f1, k) != 1 {
			continue
		}
		for mult := 1; mult*rad < k; mult++ {
			f2 := mult * rad
			if !tryQPP(perm, seen, k, f1, f2) {
				continue
			}
			if spreadOf(perm, k) < minSpread {
				continue
			}
			inv := make([]int32, k)
			for i, p := range perm {
				inv[p] = int32(i)
			}
			if spreadOf(inv, k) < minSpread {
				continue
			}
			return &QPPInterleaver{K: k, F1: f1, F2: f2, perm: perm, inverse: inv}, nil
		}
	}
	return nil, fmt.Errorf("phy: no QPP coefficients found for K=%d", k)
}

// isqrt returns ⌊√n⌋.
func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// spreadOf returns the minimum cyclic distance between the images of
// adjacent inputs — the interleaver's adjacent-bit spread.
func spreadOf(perm []int32, k int) int {
	minD := k
	prev := int(perm[0])
	for i := 1; i < k; i++ {
		cur := int(perm[i])
		d := cur - prev
		if d < 0 {
			d = -d
		}
		if k-d < d {
			d = k - d
		}
		if d < minD {
			minD = d
		}
		prev = cur
	}
	return minD
}

// tryQPP fills perm with π(i) = (f1·i + f2·i²) mod k and reports whether it
// is a bijection. seen is scratch space reused across candidates.
func tryQPP(perm []int32, seen []bool, k, f1, f2 int) bool {
	for i := range seen {
		seen[i] = false
	}
	// Incremental evaluation avoids multiplications: π(i+1)-π(i) =
	// f1 + f2(2i+1); maintain both mod k.
	pos := 0
	delta := (f1 + f2) % k
	step := (2 * f2) % k
	for i := 0; i < k; i++ {
		if seen[pos] {
			return false
		}
		seen[pos] = true
		perm[i] = int32(pos)
		pos += delta
		if pos >= k {
			pos -= k
		}
		delta += step
		if delta >= k {
			delta -= k
		}
	}
	return true
}

// Interleave writes src permuted by π into dst: dst[i] = src[π(i)].
// Both slices must have length K.
func (q *QPPInterleaver) Interleave(dst, src []byte) error {
	if len(dst) != q.K || len(src) != q.K {
		return fmt.Errorf("phy: interleave length mismatch (dst %d, src %d, K %d): %w", len(dst), len(src), q.K, ErrBadParameter)
	}
	for i, p := range q.perm {
		dst[i] = src[p]
	}
	return nil
}

// Perm returns π(i), an O(1) table lookup.
func (q *QPPInterleaver) Perm(i int) int { return int(q.perm[i]) }
