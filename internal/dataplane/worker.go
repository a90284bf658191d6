package dataplane

import (
	"time"

	"pran/internal/phy"
)

// worker owns the DSP scratch its decodes run in, so the decode path never
// allocates and a worker's memory does not depend on the shapes it has
// decoded. One worker maps to one dedicated core in the PRAN model: its unit
// of work is a claim — a queued task and the tasks that share its lockstep
// span (taskQueue.claim) — whose code blocks it decodes together on its own
// goroutine. All processor and decoder state is private to this worker's
// goroutine, and what workers share (interleavers, rate-match tables) is
// immutable.
type worker struct {
	pool *Pool
	id   int
	// dsp is the worker's transport processor on the default decode
	// profile, sized for the largest transport block (phy.MaxPRB at
	// phy.MaxMCS); nil until the worker's first task.
	dsp *phy.TransportProcessor

	// Claim scratch: the claim's tasks, and the admitted ones with their
	// transport blocks (decoded[i] is tbs[i]'s task).
	claim   []*Task
	decoded []*Task
	tbs     []phy.TBDecode
}

func newWorker(p *Pool, id int) *worker {
	return &worker{
		pool: p, id: id,
		claim:   make([]*Task, 0, phy.MaxJointBlocks),
		decoded: make([]*Task, 0, phy.MaxJointBlocks),
		tbs:     make([]phy.TBDecode, 0, phy.MaxJointBlocks),
	}
}

// processor returns the worker's transport processor, building it on first
// use.
func (w *worker) processor() (*phy.TransportProcessor, error) {
	if w.dsp == nil {
		d, err := phy.NewTransportProcessor(phy.MaxPRB)
		if err != nil {
			return nil, err
		}
		w.dsp = d
	}
	return w.dsp, nil
}

func (w *worker) run() {
	defer w.pool.wg.Done()
	for {
		claim := w.pool.next(w.claim[:0])
		if len(claim) == 0 {
			return
		}
		w.execute(claim)
		w.pool.finish(claim, w.id)
		clear(claim)
	}
}

// admit runs the per-task admission steps (deadline abandon, fault hook)
// and reports whether the task should be processed.
func (w *worker) admit(t *Task, now time.Time) bool {
	if w.pool.cfg.AbandonLate && now.After(t.Deadline) {
		t.Err = ErrAbandoned
		t.Finished = now
		return false
	}
	t.Started = now
	if hook := w.pool.cfg.FaultHook; hook != nil {
		if err := hook(w.id); err != nil {
			t.Err = err
			t.Finished = time.Now()
			return false
		}
	}
	return true
}

// recordStages feeds the per-stage histograms and the lane-fill telemetry
// from a processor's most recent decode — a claim's, all its tasks at once:
// one batch-width observation per span, valued at the code blocks it
// decoded together, whichever transport blocks they came from, counted full
// at the decoder's lockstep width and ragged below it.
func (w *worker) recordStages(proc *phy.TransportProcessor) {
	tel := w.pool.tel
	if tel == nil {
		return
	}
	tm := &proc.Timings
	tel.frontEnd.ObserveDuration(w.id, tm.FrontEnd)
	tel.turbo.ObserveDuration(w.id, tm.TurboDecode)
	tel.crc.ObserveDuration(w.id, tm.CRCCheck)
	var full, ragged uint64
	for n, spans := range tm.Spans {
		for range spans {
			tel.batchWidth.Observe(w.id, float64(n))
		}
		if n == phy.MaxJointBlocks {
			full += uint64(spans)
		} else {
			ragged += uint64(spans)
		}
	}
	tel.batchFull.Add(w.id, full)
	tel.batchRagged.Add(w.id, ragged)
}

// execute runs a claim: each task's admission (abandon, fault hook), then
// one joint decode of the admitted tasks' transport blocks. Every task of
// the claim starts at the claim's start and finishes when the joint decode
// returns.
func (w *worker) execute(claim []*Task) {
	now := time.Now()
	proc, err := w.processor()
	w.decoded, w.tbs = w.decoded[:0], w.tbs[:0]
	for _, t := range claim {
		if !w.admit(t, now) {
			continue
		}
		if err != nil {
			t.Err = err
			t.Finished = time.Now()
			continue
		}
		w.decoded = append(w.decoded, t)
		w.tbs = append(w.tbs, phy.TBDecode{
			MCS: t.Alloc.MCS, NPRB: t.Alloc.NumPRB, RX: t.REs, N0: t.N0,
			RNTI: uint16(t.Alloc.RNTI), CellID: t.PCI, Subframe: t.TTI.Subframe(), RV: int(t.Alloc.RV), Soft: t.Soft,
		})
	}
	if len(w.tbs) == 0 {
		return
	}
	// The claim shares one iteration cap (its span key). IterCap is 0 at
	// level 0, which SetMaxIterations maps back to the default budget — a
	// processor left capped by a degraded claim is restored before the next
	// full-fidelity decode.
	proc.SetMaxIterations(w.decoded[0].Degrade.IterCap())
	proc.DecodeJoint(w.tbs)
	fin := time.Now()
	for i, t := range w.decoded {
		tb := &w.tbs[i]
		t.Payload, t.Err, t.TurboIterations = tb.Payload, tb.Err, tb.TurboIterations
		t.Finished = fin
	}
	clear(w.tbs)
	clear(w.decoded)
	w.recordStages(proc)
}
