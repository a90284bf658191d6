package dataplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"pran/internal/frame"
	"pran/internal/phy"
)

// HARQManager keeps per-(RNTI, HARQ process) soft-combining state for one
// cell. On a first transmission (RV 0) the process's soft buffer is reset;
// on retransmissions with a matching configuration the existing buffer is
// returned so the decoder accumulates LLRs (incremental redundancy).
//
// This state is exactly what PRAN must migrate when the controller moves a
// cell between servers — StateBytes reports its size, which experiment E9
// records as the migration payload.
type HARQManager struct {
	states map[harqStateKey]*harqState
}

type harqStateKey struct {
	rnti frame.RNTI
	proc uint8
}

type harqState struct {
	sb   *phy.SoftBuffer
	mcs  phy.MCS
	nprb int
	tti  frame.TTI
	// busy is true while an in-flight decode task owns sb (set by
	// prepareOwned on the driver goroutine, cleared by the pool on the
	// worker goroutine after the task's last use of the buffer). While
	// set, the manager must not reset, reuse, or hand out sb.
	busy atomic.Bool
}

// NewHARQManager returns an empty manager.
func NewHARQManager() *HARQManager {
	return &HARQManager{states: make(map[harqStateKey]*harqState)}
}

// Prepare returns the soft buffer to use for an allocation's decode, or nil
// when no buffer could be built (the decode then runs without combining).
// RV 0 resets the process; a retransmission reuses the accumulated LLRs if
// the configuration matches, else the buffer is laid out afresh — in the
// process's own storage when no decode still holds it, so an allocation
// that changes shape every TTI allocates nothing. Prepare is for
// synchronous callers that decode on the calling goroutine; when the decode
// is handed to a pool worker, the cell processor uses prepareOwned so the
// buffer's ownership transfers with the task.
func (h *HARQManager) Prepare(a frame.Allocation, tti frame.TTI) *phy.SoftBuffer {
	sb, _ := h.prepare(a, tti)
	return sb
}

// prepareOwned is Prepare for the pool path: it additionally marks the
// returned buffer's state busy and returns the state handle the pool must
// release (clear busy) after the task's last use of the buffer. A nil
// buffer comes with a nil handle.
func (h *HARQManager) prepareOwned(a frame.Allocation, tti frame.TTI) (*phy.SoftBuffer, *harqState) {
	sb, st := h.prepare(a, tti)
	if st != nil {
		st.busy.Store(true)
	}
	return sb, st
}

func (h *HARQManager) prepare(a frame.Allocation, tti frame.TTI) (*phy.SoftBuffer, *harqState) {
	key := harqStateKey{a.RNTI, a.HARQProcess}
	st, ok := h.states[key]
	sameCfg := ok && st.mcs == a.MCS && st.nprb == a.NumPRB
	busy := ok && st.busy.Load()
	if a.RV != 0 && sameCfg {
		if busy {
			// The previous transmission's decode still owns the buffer
			// (the pool is lagging past the HARQ RTT). Decode without
			// combining rather than read LLRs a worker may still be
			// writing.
			return nil, nil
		}
		st.tti = tti
		return st.sb, st
	}
	if ok && !busy {
		// At rest: zero the buffer, re-laid out if the shape changed.
		if err := st.sb.Reshape(a.MCS, a.NumPRB); err != nil {
			return nil, nil
		}
		st.mcs, st.nprb, st.tti = a.MCS, a.NumPRB, tti
		return st.sb, st
	}
	// New process, or a transmission that cannot combine while the old
	// buffer is still attached to an in-flight decode: start fresh and let
	// any in-flight task keep the detached buffer.
	sb, err := phy.NewSoftBuffer(a.MCS, a.NumPRB)
	if err != nil {
		return nil, nil
	}
	st = &harqState{sb: sb, mcs: a.MCS, nprb: a.NumPRB, tti: tti}
	h.states[key] = st
	return st.sb, st
}

// Processes returns the number of tracked HARQ processes.
func (h *HARQManager) Processes() int { return len(h.states) }

// StateBytes returns the total soft-buffer state size in bytes — the
// payload a cell migration must transfer (3 streams × (K+4) float32 per
// code block).
func (h *HARQManager) StateBytes() int {
	total := 0
	for _, st := range h.states {
		total += st.sb.MarshalledSize()
	}
	return total
}

// MarshalBinary serializes the full HARQ state for migration: a count
// followed by, per process, its key (RNTI, process), configuration (MCS,
// PRB), last TTI, and the soft buffer's LLRs. The format is
// self-describing enough for UnmarshalBinary to rebuild buffers on the
// destination server. Processes whose buffer is attached to an in-flight
// decode (busy) are skipped: a pool worker owns those LLRs right now, so
// reading them would race, and a half-combined buffer is worthless to the
// destination — the snapshot simply carries the processes at rest.
func (h *HARQManager) MarshalBinary() ([]byte, error) {
	// Deterministic order for testability.
	keys := make([]harqStateKey, 0, len(h.states))
	for k, st := range h.states {
		if st.busy.Load() {
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rnti != keys[j].rnti {
			return keys[i].rnti < keys[j].rnti
		}
		return keys[i].proc < keys[j].proc
	})
	dst := binary.BigEndian.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		st := h.states[k]
		dst = binary.BigEndian.AppendUint16(dst, uint16(k.rnti))
		dst = append(dst, k.proc)
		dst = append(dst, byte(st.mcs))
		dst = binary.BigEndian.AppendUint16(dst, uint16(st.nprb))
		dst = binary.BigEndian.AppendUint64(dst, uint64(st.tti))
		dst = binary.BigEndian.AppendUint32(dst, uint32(st.sb.MarshalledSize()))
		dst = st.sb.MarshalAppend(dst)
	}
	return dst, nil
}

// UnmarshalBinary rebuilds HARQ state serialized by MarshalBinary,
// replacing any existing state.
func (h *HARQManager) UnmarshalBinary(src []byte) error {
	if len(src) < 4 {
		return fmt.Errorf("dataplane: HARQ state truncated: %w", phy.ErrTooShort)
	}
	const hdr = 2 + 1 + 1 + 2 + 8 + 4
	n := binary.BigEndian.Uint32(src)
	pos := 4
	// The count is the sender's word: refuse one the remaining bytes
	// cannot hold (a header per entry) before it sizes anything.
	if uint64(n) > uint64(len(src)-pos)/hdr {
		return fmt.Errorf("dataplane: HARQ state claims %d entries in %d bytes: %w", n, len(src)-pos, phy.ErrTooShort)
	}
	states := make(map[harqStateKey]*harqState, n)
	for i := uint32(0); i < n; i++ {
		if pos+hdr > len(src) {
			return fmt.Errorf("dataplane: HARQ state entry %d truncated: %w", i, phy.ErrTooShort)
		}
		key := harqStateKey{
			rnti: frame.RNTI(binary.BigEndian.Uint16(src[pos:])),
			proc: src[pos+2],
		}
		mcs := phy.MCS(src[pos+3])
		nprb := int(binary.BigEndian.Uint16(src[pos+4:]))
		tti := frame.TTI(binary.BigEndian.Uint64(src[pos+6:]))
		blobLen := int(binary.BigEndian.Uint32(src[pos+14:]))
		pos += hdr
		if pos+blobLen > len(src) {
			return fmt.Errorf("dataplane: HARQ buffer %d truncated: %w", i, phy.ErrTooShort)
		}
		sb, err := phy.NewSoftBuffer(mcs, nprb)
		if err != nil {
			return fmt.Errorf("dataplane: HARQ state entry %d: %w", i, err)
		}
		if sb.MarshalledSize() != blobLen {
			return fmt.Errorf("dataplane: HARQ buffer %d size %d != expected %d: %w",
				i, blobLen, sb.MarshalledSize(), ctrlBadState)
		}
		if _, err := sb.Unmarshal(src[pos : pos+blobLen]); err != nil {
			return err
		}
		pos += blobLen
		states[key] = &harqState{sb: sb, mcs: mcs, nprb: nprb, tti: tti}
	}
	h.states = states
	return nil
}

// ctrlBadState marks malformed migration payloads.
var ctrlBadState = errors.New("dataplane: malformed HARQ migration state")
