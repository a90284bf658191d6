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
// count as residual losses. A process is stop-and-wait: from a
// transmission until its verdict it carries nothing else, however far the
// pool lags the subframes, so a late verdict is still counted as what it
// is. A transmission that gets no CRC verdict — abandoned, or its subframe
// never reached the pool — is retransmitted if it was a retransmission
// with attempts left, ends its TB as exhausted if it was the last attempt,
// and frees the process if it was a first transmission (the MAC
// reschedules the data).

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

// harqProc is one busy HARQ process: a transmission awaiting its verdict,
// or a failed TB awaiting its retransmission.
type harqProc struct {
	alloc   frame.Allocation // the TB's grant, which every attempt reuses
	payload []byte           // the TB, kept once its first transmission fails
	attempt int              // transmissions made
	// sent is true from a transmission until its verdict; sentTTI is that
	// transmission's TTI, which tells its verdict from a stale one.
	sent    bool
	sentTTI frame.TTI
	dueTTI  frame.TTI // when !sent, the TTI the next retransmission is due
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

// harqLoop tracks the busy HARQ processes of one cell. Worker callbacks
// and the TTI loop access it concurrently.
type harqLoop struct {
	mu    sync.Mutex
	procs map[harqKey]*harqProc
	stats HARQStats
}

func newHARQLoop() *harqLoop {
	return &harqLoop{procs: make(map[harqKey]*harqProc)}
}

// onTaskDone processes one decode outcome. payload is the transmitted TB
// (retained so a failure can retransmit the same bits). A verdict for a
// transmission the process no longer awaits — one release gave up on — is
// ignored.
func (h *harqLoop) onTaskDone(t *dataplane.Task, payload []byte) {
	key := harqKey{t.Alloc.RNTI, t.Alloc.HARQProcess}
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.procs[key]
	if !ok || !p.sent || p.sentTTI != t.TTI {
		return
	}
	p.sent = false
	switch {
	case t.Err == nil:
		if p.attempt > 1 {
			h.stats.Recovered++
		}
		delete(h.procs, key)
	case errIsCRC(t.Err):
		if p.attempt == 1 {
			h.stats.FirstTxFailures++
			p.payload = append([]byte(nil), payload...)
		}
		if p.attempt >= maxHARQAttempts {
			h.stats.Exhausted++
			delete(h.procs, key)
			return
		}
		p.dueTTI = t.TTI + harqRetxInterval
	default:
		h.lost(key, p, t.TTI)
	}
}

// lost settles a transmission at tti that gets no CRC verdict. h.mu is
// held.
func (h *harqLoop) lost(key harqKey, p *harqProc, tti frame.TTI) {
	switch {
	case p.attempt == 1:
		delete(h.procs, key)
	case p.attempt >= maxHARQAttempts:
		h.stats.Exhausted++
		delete(h.procs, key)
	default:
		p.dueTTI = tti + harqRetxInterval
	}
}

// errIsCRC reports whether the decode failed on CRC (vs abandoned etc.).
func errIsCRC(err error) bool {
	return errors.Is(err, phy.ErrCRC)
}

// inject rewrites a subframe's fresh work to carry due retransmissions:
// fresh allocations on busy processes or overlapping a retransmission's
// PRBs are dropped, and the retransmission is appended with its next RV.
// Every transmission left in the work then holds its process until its
// verdict. It returns the payload overrides (allocation index → TB bits to
// transmit).
func (h *harqLoop) inject(work *frame.SubframeWork) map[int][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Phase 0: drop fresh allocations on busy HARQ processes regardless of
	// whether their retransmission is due this subframe — a real MAC never
	// schedules new data on a process that is still combining or awaiting
	// its acknowledgement.
	fresh := work.Allocations[:0]
	for _, a := range work.Allocations {
		if _, busy := h.procs[harqKey{a.RNTI, a.HARQProcess}]; busy {
			continue
		}
		fresh = append(fresh, a)
	}
	work.Allocations = fresh
	// Phase 1: choose due retransmissions with mutually disjoint PRB spans
	// (two processes may claim overlapping PRBs because their grants came
	// from different TTIs); losers retry next subframe.
	type span struct{ lo, hi int }
	var taken []span
	var chosen []*harqProc
	for _, p := range h.procs {
		if p.sent || p.dueTTI > work.TTI {
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
	// Phase 2: drop fresh allocations overlapping a retransmission's PRBs;
	// the rest are first transmissions.
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
			h.procs[harqKey{a.RNTI, a.HARQProcess}] = &harqProc{alloc: a, attempt: 1, sent: true, sentTTI: work.TTI}
		}
	}
	work.Allocations = kept
	if len(chosen) == 0 {
		return nil
	}
	// Phase 3: append retransmissions and record payload overrides.
	overrides := make(map[int][]byte, len(chosen))
	for _, p := range chosen {
		retx := p.alloc
		retx.RV = rvSequence[p.attempt%len(rvSequence)]
		work.Allocations = append(work.Allocations, retx)
		overrides[len(work.Allocations)-1] = p.payload
		p.attempt++
		p.sent, p.sentTTI = true, work.TTI
		h.stats.Retransmissions++
	}
	return overrides
}

// release gives up on the transmissions inject put in work, for a subframe
// that failed before the pool could decode it: each is settled as a
// transmission without a verdict. A process whose verdict already came is
// left alone.
func (h *harqLoop) release(work frame.SubframeWork) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, a := range work.Allocations {
		key := harqKey{a.RNTI, a.HARQProcess}
		if p, ok := h.procs[key]; ok && p.sent && p.sentTTI == work.TTI {
			p.sent = false
			h.lost(key, p, work.TTI)
		}
	}
}

// snapshot returns the current statistics.
func (h *harqLoop) snapshot() HARQStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}
