package phy

import (
	"fmt"
	"sync"
)

// Rate matching per 36.212 §5.1.4.1: each turbo output stream passes through
// a 32-column sub-block interleaver, the three interleaved streams form a
// circular buffer (systematic first, then parity 1 and parity 2 interlaced),
// and E output bits are read from the buffer starting at a redundancy-
// version-dependent offset, skipping the <NULL> padding. The soft inverse
// accumulates LLRs back into buffer positions, which is what gives HARQ its
// incremental-redundancy soft combining.

// subblockColPerm is the bit-reversed column permutation from 36.212 table
// 5.1.4-1.
var subblockColPerm = [32]int{
	0, 16, 8, 24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30,
	1, 17, 9, 25, 5, 21, 13, 29, 3, 19, 11, 27, 7, 23, 15, 31,
}

const subblockCols = 32

// nullPos is the sentinel marking <NULL> padding positions in the circular
// buffer index map.
const nullPos int32 = -1

// RateMatcher performs rate matching and soft de-rate-matching for one turbo
// block size K. The index map from circular-buffer position to (stream,
// offset) is precomputed; Match and SoftDematch do not allocate. A matcher
// is a plan, not scratch: immutable, one per K for the whole process, and
// safe for concurrent use.
type RateMatcher struct {
	k    int
	d    int     // stream length K+4
	kw   int     // circular buffer length 3·Kpi
	wIdx []int32 // circular buffer -> index into the concatenated d streams, or nullPos
	// scat is wIdx with the <NULL> positions compacted away: scat[j] is the
	// flat destination (into the concatenated d0|d1|d2 streams, length 3d) of
	// the j-th bit emitted when reading the circular buffer from position 0.
	// It is a permutation of [0, 3d) and is the fused front-end's scatter
	// table — walking it sequentially (mod 3d) visits exactly the non-null
	// positions the staged walk over wIdx visits, in the same order, with no
	// per-position null test or stream switch.
	scat []int32
	// rvStart[rv] is the index into scat where redundancy version rv starts
	// reading: the number of non-null positions before rvOffset(rv).
	rvStart [4]int
}

var rmCache sync.Map // int → *RateMatcher

// NewRateMatcher returns the rate matcher for turbo block size k, which
// must be a legal turbo block size. Like the QPP interleavers, matchers are
// built on first request and cached process-wide.
func NewRateMatcher(k int) (*RateMatcher, error) {
	if !IsValidBlockSize(k) {
		return nil, fmt.Errorf("phy: %d is not a legal turbo block size: %w", k, ErrBadParameter)
	}
	if v, ok := rmCache.Load(k); ok {
		return v.(*RateMatcher), nil
	}
	d := k + 4
	rows := (d + subblockCols - 1) / subblockCols
	kpi := rows * subblockCols
	nd := kpi - d // leading <NULL> count per stream

	// v0/v1: standard sub-block interleave — fill row-major with nd nulls in
	// front, read columns in permuted order.
	perm01 := make([]int32, kpi) // position in padded stream
	idx := 0
	for c := 0; c < subblockCols; c++ {
		col := subblockColPerm[c]
		for r := 0; r < rows; r++ {
			perm01[idx] = int32(r*subblockCols + col)
			idx++
		}
	}
	// v2: π(j) = (P[j/rows] + 32·(j mod rows) + 1) mod kpi over the padded
	// stream.
	perm2 := make([]int32, kpi)
	for j := 0; j < kpi; j++ {
		perm2[j] = int32((subblockColPerm[j/rows] + subblockCols*(j%rows) + 1) % kpi)
	}

	// Circular buffer: w = [v0 | v1(0) v2(0) v1(1) v2(1) ...]. Map each w
	// position to an index into the concatenated streams d0|d1|d2 (each
	// length d), or nullPos for padding.
	toStream := func(stream int, padded int32) int32 {
		p := int(padded) - nd
		if p < 0 {
			return nullPos
		}
		return int32(stream*d + p)
	}
	w := make([]int32, 3*kpi)
	for j := 0; j < kpi; j++ {
		w[j] = toStream(0, perm01[j])
	}
	for j := 0; j < kpi; j++ {
		w[kpi+2*j] = toStream(1, perm01[j])
		w[kpi+2*j+1] = toStream(2, perm2[j])
	}
	m := &RateMatcher{k: k, d: d, kw: 3 * kpi, wIdx: w}
	m.scat = make([]int32, 0, 3*d)
	for _, ix := range w {
		if ix != nullPos {
			m.scat = append(m.scat, ix)
		}
	}
	for rv := 0; rv < 4; rv++ {
		k0 := m.rvOffset(rv)
		nn := 0
		for _, ix := range w[:k0] {
			if ix != nullPos {
				nn++
			}
		}
		m.rvStart[rv] = nn
	}
	actual, _ := rmCache.LoadOrStore(k, m)
	return actual.(*RateMatcher), nil
}

// K returns the turbo block size.
func (m *RateMatcher) K() int { return m.k }

// BufferLen returns the circular buffer length Kw (including nulls).
func (m *RateMatcher) BufferLen() int { return m.kw }

// rvOffset returns the read start position k0 for a redundancy version.
func (m *RateMatcher) rvOffset(rv int) int {
	rows := m.kw / 3 / subblockCols
	ncb := m.kw
	k0 := rows * (2*((ncb/(8*rows))+1)*rv + 2)
	return k0 % m.kw
}

// Match selects e coded bits from the encoder streams d0, d1, d2 (each
// length K+4) for redundancy version rv, appending them to dst. e may exceed
// the buffer length (repetition) or be smaller (puncturing).
func (m *RateMatcher) Match(dst []byte, d0, d1, d2 []byte, e, rv int) ([]byte, error) {
	if len(d0) != m.d || len(d1) != m.d || len(d2) != m.d {
		return dst, fmt.Errorf("phy: rate match streams must each be K+4=%d bits: %w", m.d, ErrBadParameter)
	}
	if e <= 0 || rv < 0 || rv > 3 {
		return dst, fmt.Errorf("phy: rate match e=%d rv=%d: %w", e, rv, ErrBadParameter)
	}
	pos := m.rvOffset(rv)
	for n := 0; n < e; {
		ix := m.wIdx[pos]
		if ix != nullPos {
			var b byte
			switch {
			case int(ix) < m.d:
				b = d0[ix]
			case int(ix) < 2*m.d:
				b = d1[int(ix)-m.d]
			default:
				b = d2[int(ix)-2*m.d]
			}
			dst = append(dst, b)
			n++
		}
		pos++
		if pos == m.kw {
			pos = 0
		}
	}
	return dst, nil
}

// SoftDematch accumulates e received LLRs into the per-stream LLR buffers
// ld0, ld1, ld2 (each length K+4). Callers zero the buffers for a fresh
// transmission and keep them across retransmissions for HARQ soft combining;
// repeated positions combine additively either way.
func (m *RateMatcher) SoftDematch(ld0, ld1, ld2 []float32, llr []float32, rv int) error {
	if len(ld0) != m.d || len(ld1) != m.d || len(ld2) != m.d {
		return fmt.Errorf("phy: dematch buffers must each be K+4=%d: %w", m.d, ErrBadParameter)
	}
	if rv < 0 || rv > 3 {
		return fmt.Errorf("phy: rv=%d out of range: %w", rv, ErrBadParameter)
	}
	pos := m.rvOffset(rv)
	for n := 0; n < len(llr); {
		ix := m.wIdx[pos]
		if ix != nullPos {
			v := llr[n]
			switch {
			case int(ix) < m.d:
				ld0[ix] += v
			case int(ix) < 2*m.d:
				ld1[int(ix)-m.d] += v
			default:
				ld2[int(ix)-2*m.d] += v
			}
			n++
		}
		pos++
		if pos == m.kw {
			pos = 0
		}
	}
	return nil
}
