package phy

import "encoding/binary"

// CRC generators from 3GPP TS 36.212 §5.1.1. CRC-24A protects transport
// blocks; CRC-24B protects individual code blocks after segmentation. Both
// operate over bit slices (one bit per byte, values 0/1), which is the
// representation the turbo codec and rate matcher use throughout the chain.
//
// The production path is table-driven: eight input bits are packed MSB-first
// into a byte and folded into the 24-bit register through a 256-entry table,
// so the register advances a byte at a time instead of a bit at a time
// (packBits packs the eight one-bit bytes). The
// original bit-serial long division remains as crc24Bitwise — it is the
// reference the table path is fuzz-checked against (FuzzCRC24).

// Generator polynomials, MSB-first, implicit leading x^24 term.
const (
	crc24APoly uint32 = 0x864CFB // x^24+x^23+x^18+x^17+x^14+x^11+x^10+x^7+x^6+x^5+x^4+x^3+x+1
	crc24BPoly uint32 = 0x800063 // x^24+x^23+x^6+x^5+x+1
	crcBits           = 24
)

// crcTable holds, for each top byte t of the 24-bit register, the value
// (t·x^24 mod G)·x^... folded so that one byte step is
// reg = (reg<<8 ^ table[reg>>16 ^ in]) & 0xFFFFFF.
type crcTable [256]uint32

func makeCRCTable(poly uint32) *crcTable {
	var t crcTable
	for b := 0; b < 256; b++ {
		reg := uint32(b) << 16
		for i := 0; i < 8; i++ {
			if reg&(1<<23) != 0 {
				reg = (reg << 1) ^ poly
			} else {
				reg <<= 1
			}
		}
		t[b] = reg & 0xFFFFFF
	}
	return &t
}

var (
	crc24ATable = makeCRCTable(crc24APoly)
	crc24BTable = makeCRCTable(crc24BPoly)
)

func crcTableFor(poly uint32) *crcTable {
	if poly == crc24BPoly {
		return crc24BTable
	}
	return crc24ATable
}

// crc24 computes the 36.212 24-bit CRC over bits (one bit per byte, values
// 0/1): MSB-first long division with zero initial remainder. The body runs
// a byte at a time; the trailing 0–7 bits fall back to single-bit steps.
func crc24(bits []byte, poly uint32) uint32 {
	table := crcTableFor(poly)
	var reg uint32
	i := 0
	for ; i+8 <= len(bits); i += 8 {
		reg = ((reg << 8) ^ table[byte(reg>>16)^packBits(bits[i:])]) & 0xFFFFFF
	}
	for ; i < len(bits); i++ {
		fb := ((reg >> 23) ^ uint32(bits[i])) & 1
		reg = (reg << 1) & 0xFFFFFF
		if fb != 0 {
			reg ^= poly
		}
	}
	return reg
}

// packBits packs bit 0 of each of the first eight bytes of b into one
// byte, b[0] in the most significant bit: one little-endian 64-bit load and
// one multiply by 0x8040201008040201, which moves bit 0 of byte i to bit
// 63−i. The eight shifted copies land on distinct bit positions, so no
// carry reaches the top byte, and it reads the eight bits MSB-first.
func packBits(b []byte) byte {
	return byte((binary.LittleEndian.Uint64(b) & 0x0101010101010101) * 0x8040201008040201 >> 56)
}

// crc24Bitwise is the direct bit-serial long division from the spec text:
// shift each message bit into a 25-bit register, reduce on overflow, then
// flush 24 zero bits. Kept as the oracle for the table-driven path.
func crc24Bitwise(bits []byte, poly uint32) uint32 {
	var reg uint32
	for _, b := range bits {
		reg <<= 1
		reg |= uint32(b & 1)
		if reg&(1<<crcBits) != 0 {
			reg ^= (1 << crcBits) | poly
		}
	}
	// Flush 24 zero bits.
	for i := 0; i < crcBits; i++ {
		reg <<= 1
		if reg&(1<<crcBits) != 0 {
			reg ^= (1 << crcBits) | poly
		}
	}
	return reg & 0xFFFFFF
}

// CRC24A returns the transport-block CRC of bits (one bit per byte).
func CRC24A(bits []byte) uint32 { return crc24(bits, crc24APoly) }

// CRC24B returns the code-block CRC of bits (one bit per byte).
func CRC24B(bits []byte) uint32 { return crc24(bits, crc24BPoly) }

// CheckCRC24A verifies that bits ends in a valid CRC-24A over its prefix.
// It returns the payload (bits without the trailing CRC) and reports whether
// the check passed. Inputs shorter than the CRC itself fail.
func CheckCRC24A(bits []byte) ([]byte, bool) { return checkCRC(bits, crc24APoly) }

// CheckCRC24B verifies a trailing CRC-24B; see CheckCRC24A.
func CheckCRC24B(bits []byte) ([]byte, bool) { return checkCRC(bits, crc24BPoly) }

func checkCRC(bits []byte, poly uint32) ([]byte, bool) {
	if len(bits) < crcBits {
		return nil, false
	}
	payload := bits[:len(bits)-crcBits]
	want := crc24(payload, poly)
	var got uint32
	for _, b := range bits[len(bits)-crcBits:] {
		got = got<<1 | uint32(b&1)
	}
	return payload, got == want
}
