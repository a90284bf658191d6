package phy

import (
	"math"
	"testing"
)

func TestGoldDeterminism(t *testing.T) {
	a := NewGoldSequence(12345)
	b := NewGoldSequence(12345)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same cinit diverged at bit %d", i)
		}
	}
}

func TestGoldDifferentInits(t *testing.T) {
	a := NewGoldSequence(1)
	b := NewGoldSequence(2)
	same := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	// Distinct Gold sequences have low cross-correlation: agreement should
	// be near 50%.
	if same < n*4/10 || same > n*6/10 {
		t.Fatalf("cross-agreement %d/%d outside [40%%,60%%]", same, n)
	}
}

func TestGoldBalance(t *testing.T) {
	g := NewGoldSequence(0x5A5A5)
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next() == 1 {
			ones++
		}
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("ones fraction %.4f too far from 0.5", frac)
	}
}

func TestScramblerInvolution(t *testing.T) {
	s := NewScrambler(ScramblerInit(17, 42, 3))
	bits := make([]byte, 512)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	orig := make([]byte, len(bits))
	copy(orig, bits)
	s.Scramble(bits)
	diff := 0
	for i := range bits {
		if bits[i] != orig[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("scrambling changed nothing")
	}
	s.Scramble(bits)
	for i := range bits {
		if bits[i] != orig[i] {
			t.Fatalf("double scramble not identity at %d", i)
		}
	}
}

func TestDescrambleLLRMatchesBitScramble(t *testing.T) {
	cinit := ScramblerInit(100, 7, 9)
	s := NewScrambler(cinit)
	bits := make([]byte, 256)
	for i := range bits {
		bits[i] = byte((i >> 2) & 1)
	}
	scrambled := make([]byte, len(bits))
	copy(scrambled, bits)
	s.Scramble(scrambled)
	// Map scrambled bits to ideal LLRs (+1 for 0, −1 for 1), descramble, and
	// confirm the signs encode the original bits.
	llr := make([]float32, len(bits))
	for i, b := range scrambled {
		if b == 0 {
			llr[i] = 1
		} else {
			llr[i] = -1
		}
	}
	NewScrambler(cinit).DescrambleLLR(llr)
	for i := range bits {
		want := bits[i]
		got := byte(0)
		if llr[i] < 0 {
			got = 1
		}
		if got != want {
			t.Fatalf("descrambled LLR sign wrong at %d", i)
		}
	}
}

func TestScramblerReinit(t *testing.T) {
	// Reinit must switch keystreams without allocating once the buffer has
	// grown, and must match a freshly built scrambler bit-for-bit.
	s := NewScrambler(ScramblerInit(1, 2, 3))
	bits := make([]byte, 1024)
	s.Scramble(bits) // grow the buffer
	for i := range bits {
		bits[i] = 0
	}
	s.Reinit(ScramblerInit(9, 8, 7))
	allocs := testing.AllocsPerRun(5, func() {
		s.Reinit(ScramblerInit(9, 8, 7))
		s.Scramble(bits)
	})
	if allocs > 0 {
		t.Fatalf("Reinit+Scramble allocates %v times", allocs)
	}
	// Equivalence with a fresh scrambler: scramble zeros yields the
	// keystream itself.
	for i := range bits {
		bits[i] = 0
	}
	s.Reinit(ScramblerInit(5, 5, 5))
	s.Scramble(bits)
	fresh := NewScrambler(ScramblerInit(5, 5, 5))
	want := make([]byte, len(bits))
	fresh.Scramble(want)
	for i := range bits {
		if bits[i] != want[i] {
			t.Fatalf("Reinit keystream differs at %d", i)
		}
	}
	// Reinit to the same cinit must keep the keystream valid.
	s.Reinit(ScramblerInit(5, 5, 5))
	again := make([]byte, len(bits))
	s.Scramble(again)
	for i := range again {
		if again[i] != want[i] {
			t.Fatalf("same-cinit Reinit invalidated keystream at %d", i)
		}
	}
}

func TestGoldNextWordMatchesBitSteps(t *testing.T) {
	// NextWord must equal 32 consecutive bit-steps, including interleaved
	// word/bit reads, for several cinits.
	for _, cinit := range []uint32{0, 1, 12345, 0x7FFFFFFF, ScramblerInit(100, 7, 9)} {
		w := NewGoldSequence(cinit)
		b := NewGoldSequence(cinit)
		for rep := 0; rep < 40; rep++ {
			got := w.NextWord()
			var want uint32
			for j := 0; j < 32; j++ {
				want |= uint32(b.Next()) << uint(j)
			}
			if got != want {
				t.Fatalf("cinit %#x word %d: NextWord %#08x, bit oracle %#08x", cinit, rep, got, want)
			}
			// Interleave: a few bit reads from both, to pin that word and bit
			// advances leave identical state.
			for j := 0; j < 7; j++ {
				if w.Next() != b.Next() {
					t.Fatalf("cinit %#x: state diverged after word %d", cinit, rep)
				}
			}
		}
	}
}

func TestScramblerIncrementalGrowth(t *testing.T) {
	// Growing the keystream in many small steps must yield exactly the
	// keystream a single large request produces.
	cinit := ScramblerInit(77, 3, 11)
	grown := NewScrambler(cinit)
	sizes := []int{1, 31, 32, 33, 100, 512, 513, 2048}
	for _, n := range sizes {
		grown.ensureKey(n)
	}
	total := sizes[len(sizes)-1]
	fresh := NewScrambler(cinit)
	fresh.ensureKey(total)
	for i := 0; i < (total+31)/32; i++ {
		if grown.words[i] != fresh.words[i] {
			t.Fatalf("incremental keystream word %d differs: %#08x vs %#08x", i, grown.words[i], fresh.words[i])
		}
	}
	// Growth after the buffer is large enough must not allocate.
	s := NewScrambler(cinit)
	s.ensureKey(4096)
	s.Reinit(cinit + 1)
	allocs := testing.AllocsPerRun(5, func() {
		s.Reinit(cinit + 1)
		s.ensureKey(1024)
		s.ensureKey(4096)
	})
	if allocs > 0 {
		t.Fatalf("incremental ensureKey allocates %v times", allocs)
	}
}

func TestScramblerInitFields(t *testing.T) {
	// Different RNTIs, cells and subframes must produce different cinit.
	a := ScramblerInit(1, 1, 1)
	if a == ScramblerInit(2, 1, 1) || a == ScramblerInit(1, 2, 1) || a == ScramblerInit(1, 1, 2) {
		t.Fatal("cinit collision across distinct parameters")
	}
}

// DescrambleLLR applies descrambling to soft values: where the keystream bit
// is 1 the LLR sign flips (bit convention: positive LLR ⇒ bit 0). The flip
// is a branchless XOR of the keystream bit against the float32 sign bit.
func (s *Scrambler) DescrambleLLR(llr []float32) {
	s.ensureKey(len(llr))
	for i := range llr {
		b := (s.words[i>>5] >> (uint(i) & 31)) & 1
		llr[i] = math.Float32frombits(math.Float32bits(llr[i]) ^ b<<31)
	}
}
