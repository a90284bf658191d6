package node

import (
	"errors"
	"sync"

	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
)

// HARQ retransmission loop. When a transport block fails its CRC, the MAC
// retransmits it on the same HARQ process 8 TTIs later with the next
// redundancy version; the data plane's per-cell HARQ manager soft-combines
// the attempts. The agent's cell runtime closes this loop: decode failures
// reported by the pool schedule retransmissions that preempt fresh traffic
// on the same PRBs, and exhausted processes (after the full RV sequence)
// count as residual losses. A process whose last transmission gets no CRC
// verdict — abandoned late, or its subframe never reached the pool — is
// exhausted too, once a round trip past its due TTI, so it never blocks
// fresh traffic for good.

// rvSequence is the LTE redundancy-version order across attempts.
var rvSequence = [4]uint8{0, 2, 3, 1}

// harqRetxInterval is the LTE FDD synchronous HARQ round-trip in TTIs.
const harqRetxInterval = 8

// maxHARQAttempts bounds total transmissions of one TB.
const maxHARQAttempts = 4

type harqKey struct {
	rnti frame.RNTI
	proc uint8
}

// pendingRetx is one failed TB awaiting retransmission.
type pendingRetx struct {
	alloc   frame.Allocation
	payload []byte
	attempt int // number of transmissions already made
	dueTTI  frame.TTI
}

// HARQStats aggregates the retransmission loop's outcomes.
type HARQStats struct {
	// FirstTxFailures counts CRC failures on initial transmissions.
	FirstTxFailures uint64
	// Retransmissions counts retransmission attempts sent.
	Retransmissions uint64
	// Recovered counts TBs eventually decoded via combining.
	Recovered uint64
	// Exhausted counts TBs dropped after the full RV sequence.
	Exhausted uint64
}

// harqLoop tracks pending retransmissions for one cell. Worker callbacks
// and the TTI loop access it concurrently.
type harqLoop struct {
	mu      sync.Mutex
	pending map[harqKey]*pendingRetx
	stats   HARQStats
}

func newHARQLoop() *harqLoop {
	return &harqLoop{pending: make(map[harqKey]*pendingRetx)}
}

// onTaskDone processes one decode outcome. payload is the transmitted TB
// (retained so a failure can retransmit the same bits).
func (h *harqLoop) onTaskDone(t *dataplane.Task, payload []byte) {
	key := harqKey{t.Alloc.RNTI, t.Alloc.HARQProcess}
	h.mu.Lock()
	defer h.mu.Unlock()
	p, inFlight := h.pending[key]
	if !inFlight && t.Alloc.RV != 0 {
		// A late verdict on a retransmission of a process that has since
		// expired (see inject): there is nothing left to retransmit.
		return
	}
	if t.Err == nil {
		if inFlight && p.attempt > 1 {
			h.stats.Recovered++
		}
		delete(h.pending, key)
		return
	}
	if !errIsCRC(t.Err) {
		// Abandoned or infrastructure errors don't advance HARQ state: the
		// UE will be rescheduled by the MAC.
		return
	}
	if !inFlight {
		// First transmission failed: queue attempt #2.
		h.stats.FirstTxFailures++
		h.pending[key] = &pendingRetx{
			alloc:   t.Alloc,
			payload: append([]byte(nil), payload...),
			attempt: 1,
			dueTTI:  t.TTI + harqRetxInterval,
		}
		return
	}
	// A retransmission failed.
	if p.attempt >= maxHARQAttempts {
		h.stats.Exhausted++
		delete(h.pending, key)
		return
	}
	p.dueTTI = t.TTI + harqRetxInterval
}

// errIsCRC reports whether the decode failed on CRC (vs abandoned etc.).
func errIsCRC(err error) bool {
	return errors.Is(err, phy.ErrCRC)
}

// inject rewrites a subframe's work to carry due retransmissions: fresh
// allocations overlapping a retransmission's PRBs are dropped, and the
// retransmission is appended with its next RV. It returns the payload
// overrides (allocation index → TB bits to transmit).
func (h *harqLoop) inject(work *frame.SubframeWork) map[int][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.pending) == 0 {
		return nil
	}
	// Expiry: a process at its last attempt whose verdict has not come one
	// round trip past its due TTI never will (the attempt was abandoned, or
	// its subframe failed before the pool); it is exhausted, and its HARQ
	// process free for fresh data again.
	for key, p := range h.pending {
		if p.attempt >= maxHARQAttempts && work.TTI >= p.dueTTI+harqRetxInterval {
			h.stats.Exhausted++
			delete(h.pending, key)
		}
	}
	// Phase 0: drop fresh allocations on busy HARQ processes regardless of
	// whether their retransmission is due this subframe — a real MAC never
	// schedules new data on a process that is still combining.
	fresh := work.Allocations[:0]
	for _, a := range work.Allocations {
		if _, busy := h.pending[harqKey{a.RNTI, a.HARQProcess}]; busy {
			continue
		}
		fresh = append(fresh, a)
	}
	work.Allocations = fresh
	// Phase 1: choose due retransmissions with mutually disjoint PRB spans
	// (two pendings may claim overlapping PRBs because their grants came
	// from different TTIs); losers retry next subframe.
	type span struct{ lo, hi int }
	var taken []span
	var chosen []*pendingRetx
	for _, p := range h.pending {
		if p.dueTTI > work.TTI || p.attempt >= maxHARQAttempts {
			continue
		}
		lo, hi := p.alloc.FirstPRB, p.alloc.FirstPRB+p.alloc.NumPRB
		conflict := false
		for _, s := range taken {
			if lo < s.hi && hi > s.lo {
				conflict = true
				break
			}
		}
		if conflict {
			p.dueTTI = work.TTI + 1
			continue
		}
		taken = append(taken, span{lo, hi})
		chosen = append(chosen, p)
	}
	if len(chosen) == 0 {
		return nil
	}
	// Phase 2: drop fresh allocations overlapping a retransmission's PRBs.
	kept := work.Allocations[:0]
	for _, a := range work.Allocations {
		overlap := false
		for _, s := range taken {
			if a.FirstPRB < s.hi && a.FirstPRB+a.NumPRB > s.lo {
				overlap = true
				break
			}
		}
		if !overlap {
			kept = append(kept, a)
		}
	}
	work.Allocations = kept
	// Phase 3: append retransmissions and record payload overrides.
	overrides := make(map[int][]byte, len(chosen))
	for _, p := range chosen {
		retx := p.alloc
		retx.RV = rvSequence[p.attempt%len(rvSequence)]
		work.Allocations = append(work.Allocations, retx)
		overrides[len(work.Allocations)-1] = p.payload
		p.attempt++
		p.dueTTI = work.TTI + harqRetxInterval // re-armed on failure
		h.stats.Retransmissions++
	}
	return overrides
}

// snapshot returns the current statistics.
func (h *harqLoop) snapshot() HARQStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}
