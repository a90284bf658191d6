// Package fronthaul models the RRH↔pool transport PRAN centralization
// depends on: CPRI-style constant-bit-rate I/Q links, block-floating-point
// (BFP) I/Q compression, and the bandwidth arithmetic of alternative
// functional splits. PRAN's feasibility argument is that fronthaul bandwidth,
// while large, is manageable with compression or a low-PHY split; experiment
// E7 regenerates that table.
//
// Concurrency: bandwidth arithmetic is pure and safe for concurrent use.
// BFP compressor/decompressor state is owned by a single goroutine per
// link direction; use one instance per link, not one shared across links.
package fronthaul

import (
	"errors"
	"fmt"
	"math"

	"pran/internal/phy"
)

// ErrCorrupt indicates a malformed compressed frame.
var ErrCorrupt = errors.New("fronthaul: corrupt compressed frame")

// CPRI framing constants.
const (
	// cpriControlOverhead is the 16/15 control-word overhead factor.
	cpriControlOverhead = 16.0 / 15.0
	// cpriLineCoding is the 10b/8b line-coding expansion.
	cpriLineCoding = 10.0 / 8.0
	// DefaultSampleBits is the per-component I/Q sample width CPRI
	// conventionally uses for LTE.
	DefaultSampleBits = 15
)

// CPRIRate returns the fronthaul line rate in bits/s for carrying one cell's
// raw I/Q: sampleRate × 2 components × sampleBits × antennas, plus CPRI
// control and line-coding overheads. The sample rate is bw.SampleRate, so a
// 15 MHz cell is carried at its 2048-point FFT's 30.72 Msps, 4/3 of the
// conventional 23.04 Msps; E7's table has no 15 MHz row.
func CPRIRate(bw phy.Bandwidth, antennas, sampleBits int) float64 {
	return bw.SampleRate() * 2 * float64(sampleBits) * float64(antennas) *
		cpriControlOverhead * cpriLineCoding
}

// standardCPRIOptions lists the standardized CPRI line-bit-rate options
// (option 1 … 10, bits/s).
var standardCPRIOptions = []float64{
	614.4e6, 1228.8e6, 2457.6e6, 3072.0e6, 4915.2e6,
	6144.0e6, 9830.4e6, 10137.6e6, 12165.12e6, 24330.24e6,
}

// CPRIOption returns the smallest standardized CPRI option number (1-based)
// whose line rate carries the given bit rate, or 0 if none suffices.
func CPRIOption(bitsPerSecond float64) int {
	for i, r := range standardCPRIOptions {
		if bitsPerSecond <= r {
			return i + 1
		}
	}
	return 0
}

// Split identifies a functional split between the RRH and the pool,
// following the eCPRI/3GPP option numbering PRAN's successors adopted. The
// split determines what traverses the fronthaul and therefore its bandwidth.
type Split int

// Supported splits.
const (
	// SplitRFIQ ships raw time-domain I/Q (CPRI classic, option 8): the
	// pool does everything. This is the split PRAN's data plane assumes.
	SplitRFIQ Split = iota
	// SplitLowPHY ships frequency-domain subcarriers after FFT/CP removal
	// (option 7.2): bandwidth scales with *used* subcarriers.
	SplitLowPHY
	// SplitMAC ships transport blocks (option 2): bandwidth scales with
	// user traffic; almost all PHY compute stays at the cell site, which
	// defeats pooling — included as the baseline extreme.
	SplitMAC
)

// String implements fmt.Stringer.
func (s Split) String() string {
	switch s {
	case SplitRFIQ:
		return "RF-IQ(8)"
	case SplitLowPHY:
		return "LowPHY(7.2)"
	case SplitMAC:
		return "MAC(2)"
	default:
		return fmt.Sprintf("Split(%d)", int(s))
	}
}

// Rate returns the fronthaul bandwidth in bits/s for one cell at the split.
// meanTput is the average MAC-layer throughput (bits/s), used only by
// SplitMAC.
func (s Split) Rate(bw phy.Bandwidth, antennas, sampleBits int, meanTput float64) float64 {
	switch s {
	case SplitRFIQ:
		return CPRIRate(bw, antennas, sampleBits)
	case SplitLowPHY:
		// Used subcarriers × symbols/s × 2 components × bits × antennas
		// (no CP, no guard bins, modest eCPRI header overhead of ~2%).
		usedSC := float64(bw.PRB() * phy.SubcarriersPerPRB)
		symbolsPerSec := float64(phy.SymbolsPerSubframe) * 1000
		return usedSC * symbolsPerSec * 2 * float64(sampleBits) * float64(antennas) * 1.02
	case SplitMAC:
		return meanTput * 1.05 // transport overhead
	default:
		return 0
	}
}

// PoolComputeShare returns the fraction of total baseband compute that runs
// in the centralized pool under the split (the remainder stays at the cell
// site). These shares follow the conventional GOPS breakdown of the LTE
// receive chain: FFT/low-PHY ≈ 40%, high-PHY (demod/decode) ≈ 50%, MAC+ ≈
// 10%.
func (s Split) PoolComputeShare() float64 {
	switch s {
	case SplitRFIQ:
		return 1.0
	case SplitLowPHY:
		return 0.60
	case SplitMAC:
		return 0.10
	default:
		return 0
	}
}

// BFPCompressor implements block-floating-point I/Q compression: samples are
// grouped into fixed-size blocks sharing one exponent; each component is
// stored as a signed mantissa of MantissaBits. This is the standard O-RAN /
// CPRI-era fronthaul compressor; typical operating points (9-bit mantissa,
// block 12) give ~1.7× compression at an EVM cost well under 1%.
type BFPCompressor struct {
	// BlockSize is the number of complex samples sharing an exponent.
	BlockSize int
	// MantissaBits is the signed mantissa width per I/Q component (2–16).
	MantissaBits int
}

// NewBFPCompressor returns a compressor with the given block size and
// mantissa width.
func NewBFPCompressor(blockSize, mantissaBits int) (*BFPCompressor, error) {
	if blockSize < 1 {
		return nil, fmt.Errorf("fronthaul: block size %d: %w", blockSize, phy.ErrBadParameter)
	}
	if mantissaBits < 2 || mantissaBits > 16 {
		return nil, fmt.Errorf("fronthaul: mantissa bits %d out of [2,16]: %w", mantissaBits, phy.ErrBadParameter)
	}
	return &BFPCompressor{BlockSize: blockSize, MantissaBits: mantissaBits}, nil
}

// CompressedSize returns the byte length of a compressed frame of n samples:
// per block, 1 exponent byte + 2×MantissaBits per sample, bit-packed and
// byte-aligned per block.
func (c *BFPCompressor) CompressedSize(n int) int {
	blocks := (n + c.BlockSize - 1) / c.BlockSize
	total := 0
	for b := 0; b < blocks; b++ {
		samples := c.BlockSize
		if b == blocks-1 {
			samples = n - b*c.BlockSize
		}
		bits := samples * 2 * c.MantissaBits
		total += 1 + (bits+7)/8
	}
	return total
}

// Ratio returns the compression ratio versus sampleBits-wide fixed-point
// I/Q for n samples (>1 means smaller).
func (c *BFPCompressor) Ratio(n, sampleBits int) float64 {
	raw := float64(n * 2 * sampleBits)
	return raw / (8 * float64(c.CompressedSize(n)))
}

// Compress encodes samples into dst (appended and returned). Values are
// scaled per block so the largest component magnitude uses the full
// mantissa range.
func (c *BFPCompressor) Compress(dst []byte, samples []complex128) []byte {
	maxMant := float64(int(1)<<(c.MantissaBits-1)) - 1
	for start := 0; start < len(samples); start += c.BlockSize {
		end := start + c.BlockSize
		if end > len(samples) {
			end = len(samples)
		}
		blk := samples[start:end]
		// Exponent: power-of-two scale that maps the block peak into the
		// mantissa range.
		peak := 0.0
		for _, s := range blk {
			if a := math.Abs(real(s)); a > peak {
				peak = a
			}
			if a := math.Abs(imag(s)); a > peak {
				peak = a
			}
		}
		exp := 0
		if peak > 0 {
			exp = int(math.Ceil(math.Log2(peak / maxMant)))
		}
		if exp < -127 {
			exp = -127
		}
		if exp > 127 {
			exp = 127
		}
		scale := math.Pow(2, float64(-exp))
		dst = append(dst, byte(int8(exp)))
		// Bit-pack mantissas MSB-first.
		var acc uint64
		accBits := 0
		put := func(v int64) {
			u := uint64(v) & ((1 << c.MantissaBits) - 1)
			acc = acc<<uint(c.MantissaBits) | u
			accBits += c.MantissaBits
			for accBits >= 8 {
				accBits -= 8
				dst = append(dst, byte(acc>>uint(accBits)))
			}
		}
		quant := func(x float64) int64 {
			v := math.Round(x * scale)
			if v > maxMant {
				v = maxMant
			}
			if v < -maxMant-1 {
				v = -maxMant - 1
			}
			return int64(v)
		}
		for _, s := range blk {
			put(quant(real(s)))
			put(quant(imag(s)))
		}
		if accBits > 0 {
			dst = append(dst, byte(acc<<uint(8-accBits)))
		}
	}
	return dst
}

// Decompress decodes n samples from src into dst (len ≥ n), returning the
// number of bytes consumed.
func (c *BFPCompressor) Decompress(dst []complex128, src []byte, n int) (int, error) {
	if len(dst) < n {
		return 0, fmt.Errorf("fronthaul: dst %d < %d samples: %w", len(dst), n, phy.ErrBadParameter)
	}
	pos := 0
	for start := 0; start < n; start += c.BlockSize {
		end := start + c.BlockSize
		if end > n {
			end = n
		}
		count := end - start
		if pos >= len(src) {
			return pos, ErrCorrupt
		}
		exp := int(int8(src[pos]))
		pos++
		scale := math.Pow(2, float64(exp))
		bits := count * 2 * c.MantissaBits
		nbytes := (bits + 7) / 8
		if pos+nbytes > len(src) {
			return pos, ErrCorrupt
		}
		var acc uint64
		accBits := 0
		bp := pos
		get := func() int64 {
			for accBits < c.MantissaBits {
				acc = acc<<8 | uint64(src[bp])
				bp++
				accBits += 8
			}
			accBits -= c.MantissaBits
			u := (acc >> uint(accBits)) & ((1 << c.MantissaBits) - 1)
			// Sign-extend.
			if u&(1<<(c.MantissaBits-1)) != 0 {
				u |= ^uint64(0) << uint(c.MantissaBits)
			}
			return int64(u)
		}
		for i := start; i < end; i++ {
			re := float64(get()) * scale
			im := float64(get()) * scale
			dst[i] = complex(re, im)
		}
		pos += nbytes
	}
	return pos, nil
}
