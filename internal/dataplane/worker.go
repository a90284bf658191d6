package dataplane

import (
	"time"

	"pran/internal/cluster"
	"pran/internal/phy"
)

// worker owns the DSP scratch its decodes run in, so the decode path never
// allocates and a worker's memory does not depend on the shapes it has
// decoded. One worker maps to one dedicated core in the PRAN model: it
// decodes every code block of a task on its own goroutine. All processor
// and decoder state is private to this worker's goroutine, and what workers
// share (interleavers, rate-match tables) is immutable.
type worker struct {
	pool *Pool
	id   int
	// dsps holds the worker's transport processor, one per decode kernel in
	// use: the pool's configured kernel, plus int16 when a float32 pool
	// degrades a cell to the ladder rung that forces it. Each is sized for
	// the largest transport block (phy.MaxPRB at phy.MaxMCS).
	dsps map[phy.DecodeKernel]*phy.TransportProcessor
}

func newWorker(p *Pool, id int) *worker {
	return &worker{pool: p, id: id, dsps: make(map[phy.DecodeKernel]*phy.TransportProcessor)}
}

// kernelFor returns the decode kernel a task at degradation level lvl runs:
// the pool's configured kernel, overridden to int16 at the ladder rungs
// that force it (a no-op on the default, int16, pool).
func (w *worker) kernelFor(lvl cluster.DegradationLevel) phy.DecodeKernel {
	if lvl.ForcesInt16() {
		return phy.KernelInt16
	}
	return w.pool.cfg.Decode.Kernel
}

// dspFor returns the processor a dispatch on the given kernel runs in — the
// pool's decode profile at that kernel — building it on first use.
func (w *worker) dspFor(kern phy.DecodeKernel) (*phy.TransportProcessor, error) {
	if d := w.dsps[kern]; d != nil {
		return d, nil
	}
	prof := w.pool.cfg.Decode
	prof.Kernel = kern
	d, err := phy.NewTransportProcessor(phy.MaxPRB, prof)
	if err != nil {
		return nil, err
	}
	w.dsps[kern] = d
	return d, nil
}

func (w *worker) run() {
	defer w.pool.wg.Done()
	for {
		t := w.pool.next()
		if t == nil {
			return
		}
		w.execute(t)
		w.pool.finish(t, w.id)
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
// from a processor's most recent decode: one batch-width observation per
// span, valued at the code blocks it decoded together, counted full at the
// profile's lockstep width and ragged below it.
func (w *worker) recordStages(proc *phy.TransportProcessor) {
	tel := w.pool.tel
	if tel == nil {
		return
	}
	tm := &proc.Timings
	tel.frontEnd.ObserveDuration(w.id, tm.Demodulate+tm.Descramble+tm.Dematch+tm.FrontEnd)
	tel.turbo.ObserveDuration(w.id, tm.TurboDecode)
	tel.crc.ObserveDuration(w.id, tm.CRCCheck)
	width := proc.Profile().Width()
	var full, ragged uint64
	for n, spans := range tm.Spans {
		for range spans {
			tel.batchWidth.Observe(w.id, float64(n))
		}
		if n == width {
			full += uint64(spans)
		} else {
			ragged += uint64(spans)
		}
	}
	tel.batchFull.Add(w.id, full)
	tel.batchRagged.Add(w.id, ragged)
}

// execute runs the uplink decode for one task.
func (w *worker) execute(t *Task) {
	if !w.admit(t, time.Now()) {
		return
	}
	if t.runInstead != nil {
		t.runInstead(w, t)
		t.Finished = time.Now()
		return
	}
	proc, err := w.dspFor(w.kernelFor(t.Degrade))
	if err != nil {
		t.Err = err
		t.Finished = time.Now()
		return
	}
	// IterCap is 0 at level 0, which SetMaxIterations maps back to the
	// default budget — a processor left capped by a degraded task is
	// restored before the next full-fidelity decode.
	proc.SetMaxIterations(t.Degrade.IterCap())
	payload, err := proc.Decode(t.Alloc.MCS, t.Alloc.NumPRB, t.REs, t.N0, uint16(t.Alloc.RNTI), t.PCI, t.TTI.Subframe(), int(t.Alloc.RV), t.Soft)
	t.Payload = payload
	t.Err = err
	t.TurboIterations = proc.Timings.TurboIterations
	t.Finished = time.Now()
	w.recordStages(proc)
}
