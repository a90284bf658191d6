package phy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randBits(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
	return b
}

func TestCRC24ARoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 8, 40, 1000, 6144} {
		data := randBits(rng, n)
		withCRC := AppendCRC24A(nil, data)
		if len(withCRC) != n+24 {
			t.Fatalf("n=%d: appended length %d, want %d", n, len(withCRC), n+24)
		}
		payload, ok := CheckCRC24A(withCRC)
		if !ok {
			t.Fatalf("n=%d: valid CRC rejected", n)
		}
		for i := range payload {
			if payload[i] != data[i] {
				t.Fatalf("n=%d: payload corrupted at bit %d", n, i)
			}
		}
	}
}

func TestCRC24BRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randBits(rng, 128)
	withCRC := AppendCRC24B(nil, data)
	if _, ok := CheckCRC24B(withCRC); !ok {
		t.Fatal("valid CRC-24B rejected")
	}
}

func TestCRCDetectsSingleBitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randBits(rng, 200)
	withCRC := AppendCRC24A(nil, data)
	for i := range withCRC {
		withCRC[i] ^= 1
		if _, ok := CheckCRC24A(withCRC); ok {
			t.Fatalf("single-bit error at %d not detected", i)
		}
		withCRC[i] ^= 1
	}
}

func TestCRCDetectsBurstErrors(t *testing.T) {
	// A CRC with a degree-24 polynomial detects all bursts ≤ 24 bits.
	rng := rand.New(rand.NewSource(4))
	data := randBits(rng, 500)
	withCRC := AppendCRC24A(nil, data)
	for trial := 0; trial < 200; trial++ {
		burstLen := 1 + rng.Intn(24)
		start := rng.Intn(len(withCRC) - burstLen)
		// Flip the burst boundaries to guarantee a nonzero error pattern.
		withCRC[start] ^= 1
		if burstLen > 1 {
			withCRC[start+burstLen-1] ^= 1
		}
		for i := start + 1; i < start+burstLen-1; i++ {
			if rng.Intn(2) == 0 {
				withCRC[i] ^= 1
			}
		}
		if _, ok := CheckCRC24A(withCRC); ok {
			t.Fatalf("burst of %d bits at %d not detected", burstLen, start)
		}
		// Restore by recomputing.
		copy(withCRC, AppendCRC24A(nil, data))
	}
}

func TestCRCTooShort(t *testing.T) {
	if _, ok := CheckCRC24A(make([]byte, 10)); ok {
		t.Fatal("short input accepted")
	}
	if _, ok := CheckCRC24B(nil); ok {
		t.Fatal("nil input accepted")
	}
}

func TestCRCDiffersBetweenPolynomials(t *testing.T) {
	data := make([]byte, 64)
	data[0] = 1
	if CRC24A(data) == CRC24B(data) {
		t.Fatal("CRC-24A and CRC-24B unexpectedly agree; polynomials wired wrong")
	}
}

func TestCRCLinearity(t *testing.T) {
	// CRC over GF(2) is linear: crc(a⊕b) == crc(a)⊕crc(b) for equal-length
	// inputs (zero initial value, no final XOR — as in 36.212).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(500)
		a := randBits(rng, n)
		b := randBits(rng, n)
		x := make([]byte, n)
		for i := range x {
			x[i] = a[i] ^ b[i]
		}
		return CRC24A(x) == (CRC24A(a) ^ CRC24A(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// AppendCRC24A appends data followed by its 24 CRC-24A bits to dst and
// returns the extended slice, mirroring the 36.212 attachment procedure.
func AppendCRC24A(dst, data []byte) []byte {
	return appendCRC(dst, data, crc24APoly)
}

// AppendCRC24B appends data followed by its CRC-24B bits to dst.
func AppendCRC24B(dst, data []byte) []byte {
	return appendCRC(dst, data, crc24BPoly)
}

func appendCRC(dst, data []byte, poly uint32) []byte {
	c := crc24(data, poly)
	dst = append(dst, data...)
	for i := crcBits - 1; i >= 0; i-- {
		dst = append(dst, byte((c>>uint(i))&1))
	}
	return dst
}
