package dataplane

import (
	"time"

	"pran/internal/cluster"
	"pran/internal/phy"
)

// worker owns the DSP scratch its decodes run in, so the decode path never
// allocates and a worker's memory does not depend on the shapes it has
// decoded. One worker maps to one dedicated core in the PRAN model; with
// Config.Decode.Workers = n > 1 its decoder additionally keeps n-1 resident
// turbo-decode helpers, so a busy worker occupies up to n cores during the
// turbo stage. All processor and decoder
// state is private to this worker's goroutine — only the parallel decoder's
// internal fan-out (documented on phy.ParallelDecoder) crosses goroutines —
// and what workers share (interleavers, rate-match tables) is immutable.
type worker struct {
	pool *Pool
	id   int
	// dsps holds the worker's DSP scratch, one entry per decode kernel in
	// use: the pool's configured kernel, plus int16 when a float32 pool
	// degrades a cell to the ladder rung that forces it.
	dsps map[phy.DecodeKernel]*dsp
	// joint marshals a claimed group's transport blocks into one fan-out on
	// the kernel's decoder; non-nil only when Config.BatchTasks ≥ 2.
	joint *phy.JointDecoder

	// Claim/dispatch scratch, reused across groups.
	group []*Task
	live  []*Task
	reqs  []phy.DecodeRequest
}

// dsp is one decode kernel's scratch on a worker: one turbo working set
// (phy.DecoderSet, the same whether a transport block decodes alone or in a
// joint group) and one transport processor per batch slot — a joint decode
// needs a distinct processor per transport block, a solo decode or a
// downlink encode uses slot 0 — each sized for the largest transport block
// (phy.MaxPRB at phy.MaxMCS).
type dsp struct {
	set   *phy.DecoderSet
	procs []*phy.TransportProcessor
}

func newWorker(p *Pool, id int) *worker {
	w := &worker{pool: p, id: id, dsps: make(map[phy.DecodeKernel]*dsp)}
	if p.cfg.batchTasks() > 1 {
		w.joint = phy.NewJointDecoder()
	}
	return w
}

// batching reports whether this worker decodes uplink tasks through its
// joint decoder (cross-task batching enabled).
func (w *worker) batching() bool { return w.joint != nil }

// kernelFor returns the decode kernel a task at degradation level lvl runs:
// the pool's configured kernel, overridden to int16 at the ladder rungs
// that force it (a no-op on the default, int16, pool).
func (w *worker) kernelFor(lvl cluster.DegradationLevel) phy.DecodeKernel {
	if lvl.ForcesInt16() {
		return phy.KernelInt16
	}
	return w.pool.cfg.Decode.Kernel
}

// dspFor returns the scratch a dispatch on the given kernel runs in — the
// pool's decode profile at that kernel — building it on first use.
func (w *worker) dspFor(kern phy.DecodeKernel) (*dsp, error) {
	if d := w.dsps[kern]; d != nil {
		return d, nil
	}
	prof := w.pool.cfg.Decode
	prof.Kernel = kern
	set, err := phy.NewDecoderSet(prof)
	if err != nil {
		return nil, err
	}
	d := &dsp{set: set, procs: make([]*phy.TransportProcessor, w.pool.cfg.batchTasks())}
	for i := range d.procs {
		if d.procs[i], err = set.NewProcessor(phy.MaxPRB); err != nil {
			return nil, err
		}
	}
	w.dsps[kern] = d
	return d, nil
}

func (w *worker) run() {
	defer w.pool.wg.Done()
	defer func() {
		// Release the resident decode helpers of the decoder sets.
		for _, d := range w.dsps {
			d.set.Close()
		}
	}()
	for {
		group := w.pool.nextGroup(w.group)
		if group == nil {
			return
		}
		w.group = group[:0] // retain the (possibly grown) backing array
		if w.batching() && group[0].joinable() {
			w.executeJoint(group)
		} else {
			// Non-joinable tasks (custom work functions) always claim alone.
			w.execute(group[0])
		}
		for _, t := range group {
			w.pool.finish(t, w.id)
		}
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

// recordStages feeds the per-stage histograms from a processor's most
// recent decode.
func (w *worker) recordStages(tm phy.StageTimings) {
	if tel := w.pool.tel; tel != nil {
		// With Decode.Workers > 1 per-block front-ends overlap turbo decoding
		// and fold into TurboDecode (see phy.StageTimings), so the front-end
		// histogram records 0 there rather than a fabricated split.
		tel.frontEnd.ObserveDuration(w.id, tm.Demodulate+tm.Descramble+tm.Dematch+tm.FrontEnd)
		tel.turbo.ObserveDuration(w.id, tm.TurboDecode)
		tel.crc.ObserveDuration(w.id, tm.CRCCheck)
	}
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
	d, err := w.dspFor(w.kernelFor(t.Degrade))
	if err != nil {
		t.Err = err
		t.Finished = time.Now()
		return
	}
	proc := d.procs[0]
	// IterCap is 0 at level 0, which SetMaxIterations maps back to the
	// default budget — a processor left capped by a degraded task is
	// restored before the next full-fidelity decode.
	proc.SetMaxIterations(t.Degrade.IterCap())
	payload, err := proc.Decode(t.Alloc.MCS, t.Alloc.NumPRB, t.REs, t.N0, uint16(t.Alloc.RNTI), t.PCI, t.TTI.Subframe(), int(t.Alloc.RV), t.Soft)
	t.Payload = payload
	t.Err = err
	t.TurboIterations = proc.Timings.TurboIterations
	t.Finished = time.Now()
	w.recordStages(proc.Timings)
}

// executeJoint decodes a claimed group of same-shape uplink tasks in one
// joint fan-out, so lockstep batches span the group's transport blocks.
// Group width 1 still routes through the joint decoder, onto the same
// decoders a solo decode would use.
func (w *worker) executeJoint(group []*Task) {
	now := time.Now()
	if tel := w.pool.tel; tel != nil {
		tel.batchWidth.Observe(w.id, float64(len(group)))
		if len(group) >= w.pool.cfg.batchTasks() {
			tel.batchFull.Inc(w.id)
		} else {
			tel.batchRagged.Inc(w.id)
		}
	}
	live, reqs := w.live[:0], w.reqs[:0]
	defer func() {
		for i := range reqs {
			reqs[i] = phy.DecodeRequest{}
		}
		w.live, w.reqs = live[:0], reqs[:0]
	}()
	for _, t := range group {
		if w.admit(t, now) {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return
	}
	failAll := func(err error) {
		fin := time.Now()
		for _, t := range live {
			t.Err = err
			t.Finished = fin
		}
	}
	// The group is shape-uniform (sameShape includes the degradation
	// level), so one kernel choice and one iteration budget cover it, and
	// one dsp supplies the distinct processors on one decoder set a joint
	// decode needs.
	d, err := w.dspFor(w.kernelFor(live[0].Degrade))
	if err != nil {
		failAll(err)
		return
	}
	for n, t := range live {
		reqs = append(reqs, phy.DecodeRequest{
			P: d.procs[n], MCS: t.Alloc.MCS, NumPRB: t.Alloc.NumPRB, RX: t.REs, N0: t.N0,
			RNTI: uint16(t.Alloc.RNTI), CellID: t.PCI, Subframe: t.TTI.Subframe(),
			RV: int(t.Alloc.RV), SB: t.Soft,
		})
	}
	w.joint.SetMaxIterations(live[0].Degrade.IterCap())
	if err := w.joint.DecodeJoint(reqs); err != nil {
		failAll(err)
		return
	}
	fin := time.Now()
	for n, t := range live {
		r := &reqs[n]
		t.Payload, t.Err, t.TurboIterations = r.Payload, r.Err, r.Iters
		t.Finished = fin
		w.recordStages(r.P.Timings)
	}
}
