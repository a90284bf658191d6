package dataplane

import (
	"time"

	"pran/internal/cluster"
	"pran/internal/phy"
)

// worker owns per-configuration DSP state so the steady-state decode path
// never allocates. One worker maps to one dedicated core in the PRAN model;
// with Config.DecodeWorkers > 1 its decoders additionally keep
// DecodeWorkers-1 resident turbo-decode helpers, so a busy worker occupies
// up to DecodeWorkers cores during the turbo stage. All processor and
// decoder state is private to this worker's goroutine — only the parallel
// decoder's internal fan-out (documented on phy.ParallelDecoder) crosses
// goroutines.
type worker struct {
	pool *Pool
	id   int
	// decs holds the worker's turbo decoders, one phy.DecoderSet per decode
	// kernel in use: the pool's configured kernel, plus int16 when a float32
	// pool degrades a cell to the ladder rung that forces it. Inside a set
	// decoders are keyed by turbo block size K and built on first decode, so
	// however many (MCS, NumPRB) shapes the worker caches below, it carries
	// one turbo working set per K it has decoded — the same one whether a
	// transport block decodes alone or in a joint group. Nil in NaiveAlloc
	// mode.
	decs map[phy.DecodeKernel]*phy.DecoderSet
	// procs caches transport processors keyed by (MCS, NumPRB, kernel),
	// built from the kernel's decoder set; nil when the pool runs in
	// NaiveAlloc mode. With cross-task batching each key holds one
	// processor per potential batch slot (a joint decode needs a distinct
	// processor per transport block); otherwise the slice has exactly one.
	procs map[procKey][]*phy.TransportProcessor
	// joint marshals a claimed group's transport blocks into one fan-out on
	// the set's decoder; non-nil only when Config.BatchTasks ≥ 2.
	joint *phy.JointDecoder

	// Claim/dispatch scratch, reused across groups.
	group []*Task
	live  []*Task
	reqs  []phy.DecodeRequest
}

type procKey struct {
	mcs    phy.MCS
	nprb   int
	kernel phy.DecodeKernel
}

func newWorker(p *Pool, id int) *worker {
	w := &worker{pool: p, id: id}
	if !p.cfg.NaiveAlloc {
		w.decs = make(map[phy.DecodeKernel]*phy.DecoderSet)
		w.procs = make(map[procKey][]*phy.TransportProcessor)
	}
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
	return w.pool.cfg.DecodeKernel
}

// procOptions returns the construction options for this worker's decoder
// set and processors running the given kernel.
func (w *worker) procOptions(kern phy.DecodeKernel) phy.ProcOptions {
	cfg := w.pool.cfg
	return phy.ProcOptions{Workers: cfg.DecodeWorkers, Kernel: kern, FrontEnd: cfg.FrontEnd, Batch: cfg.DecodeBatch}
}

// processor returns slot n's transport processor for the configuration and
// kernel, cached per worker unless the GC-pressure ablation is on. In
// NaiveAlloc mode the caller owns the returned processor and must Close it
// after use (the cached ones share the worker's decoder sets, closed when
// the worker exits). The solo decode and downlink-encode paths use slot 0;
// joint decodes use one slot per transport block in the batch.
func (w *worker) processor(mcs phy.MCS, nprb, n int, kern phy.DecodeKernel) (*phy.TransportProcessor, error) {
	if w.procs == nil {
		return phy.NewTransportProcessorOpts(mcs, nprb, w.procOptions(kern))
	}
	key := procKey{mcs: mcs, nprb: nprb, kernel: kern}
	s := w.procs[key]
	for len(s) <= n {
		ds, ok := w.decs[kern]
		if !ok {
			var err error
			if ds, err = phy.NewDecoderSet(w.procOptions(kern)); err != nil {
				return nil, err
			}
			w.decs[kern] = ds
		}
		p, err := ds.NewProcessor(mcs, nprb)
		if err != nil {
			return nil, err
		}
		s = append(s, p)
		w.procs[key] = s
	}
	return s[n], nil
}

func (w *worker) run() {
	defer w.pool.wg.Done()
	defer func() {
		// Release the resident decode helpers of the decoder sets.
		for _, ds := range w.decs {
			ds.Close()
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
		// With DecodeWorkers > 1 per-block front-ends overlap turbo decoding
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
	proc, err := w.processor(t.Alloc.MCS, t.Alloc.NumPRB, 0, w.kernelFor(t.Degrade))
	if err != nil {
		t.Err = err
		t.Finished = time.Now()
		return
	}
	if w.procs == nil {
		defer proc.Close()
	}
	// IterCap is 0 at level 0, which SetMaxIterations maps back to the
	// default budget — a cached processor left capped by a degraded task
	// is restored before the next full-fidelity decode.
	proc.SetMaxIterations(t.Degrade.IterCap())
	payload, err := proc.Decode(t.REs, t.N0, uint16(t.Alloc.RNTI), t.PCI, t.TTI.Subframe(), int(t.Alloc.RV), t.Soft)
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
	// level), so one kernel choice and one iteration budget cover it. A
	// joint decode needs its processors from one decoder set: the worker's
	// cached ones are, and the GC-pressure ablation builds a set for the
	// dispatch.
	kern := w.kernelFor(live[0].Degrade)
	var fresh *phy.DecoderSet
	if w.procs == nil {
		var err error
		if fresh, err = phy.NewDecoderSet(w.procOptions(kern)); err != nil {
			failAll(err)
			return
		}
		defer fresh.Close()
	}
	for n, t := range live {
		var proc *phy.TransportProcessor
		var err error
		if fresh != nil {
			proc, err = fresh.NewProcessor(t.Alloc.MCS, t.Alloc.NumPRB)
		} else {
			proc, err = w.processor(t.Alloc.MCS, t.Alloc.NumPRB, n, kern)
		}
		if err != nil {
			failAll(err)
			return
		}
		reqs = append(reqs, phy.DecodeRequest{
			P: proc, RX: t.REs, N0: t.N0,
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
