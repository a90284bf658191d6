package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/traffic"
)

// ulWorkload describes one uplink workload: how the pool is configured, how
// the load is offered and what each cell's ring of subframes holds.
type ulWorkload struct {
	name    string
	workers int
	scale   float64 // dataplane.Config.DeadlineScale
	// period > 0 makes the loop open: one TTI (a subframe from every cell)
	// is due every period, whether or not earlier ones are decoded.
	period time.Duration
	// window bounds the cell-subframes in flight in a closed loop, which the
	// warm-up pass of every workload is.
	window int
	// procs, when > 0, is the GOMAXPROCS the workload runs under. The two
	// closed loops run on one P: with a P each, the load generator and the
	// worker hand work to and fro across two virtual CPUs, and whether the
	// host runs them side by side or in turns on one CPU flips every few
	// seconds and moves throughput by a quarter. On one P the loop reads the
	// compute a TTI costs one core, which is what rt_slowdown is about.
	procs int
	build func(seed int64) ([]cellPlan, error)
}

// cellPlan is one cell's ring before any I/Q exists.
type cellPlan struct {
	cfg    frame.CellConfig
	fading *phy.ChannelResponse // nil: AWGN only
	works  []frame.SubframeWork
	// retxOf, when non-nil, gives for each slot the slot whose payloads it
	// retransmits (-1 for a slot of first transmissions). At run time a
	// retransmission stays in the subframe only if its first attempt failed.
	retxOf []int
	// lossy marks a cell whose allocations sit at the link-adaptation SNR
	// with no retransmission scheduled: a first-transmission CRC failure is
	// the channel's expected loss there, counted in bench.failed_share and
	// phy.crc_fail_share but not as a failed operation.
	lossy bool
}

func cellConfig(id int, bw phy.Bandwidth) frame.CellConfig {
	return frame.CellConfig{ID: frame.CellID(id), PCI: uint16(7 + 3*id), Bandwidth: bw, Antennas: 1}
}

// uniformWork fills a subframe with ues equal allocations of nprb PRBs each,
// spaced stride PRBs apart.
func uniformWork(cell frame.CellID, k, ues, nprb, stride int, mcs func() phy.MCS, margin float64) frame.SubframeWork {
	w := frame.SubframeWork{Cell: cell, TTI: frame.TTI(k)}
	for u := 0; u < ues; u++ {
		m := mcs()
		w.Allocations = append(w.Allocations, frame.Allocation{
			RNTI: frame.RNTI(100 + u), FirstPRB: u * stride, NumPRB: nprb, MCS: m, Dir: phy.Uplink,
			HARQProcess: uint8(k % 8), SNRdB: m.OperatingSNR() + margin,
		})
	}
	return w
}

const (
	peakRing   = 32
	lowphyRing = 16
	pacedRing  = 64
	// peakMargin is far enough above the 10 % BLER point that no block of the
	// four high MCS fails.
	peakMargin = 5.0
	// lowphyMargin keeps every 3-PRB block decodable through EPA fading, so
	// that no operation fails on this workload.
	lowphyMargin = 15.0
	// harqMargin puts the HARQ cell just below the 10 % BLER point, where
	// about half of the first transmissions fail and combining recovers them.
	harqMargin = -0.2
	pacedTTI   = 72 * time.Millisecond
)

var workloads = []*ulWorkload{
	{
		name: "ul_peak", workers: 1, scale: 1e6, window: 1, procs: 1,
		build: func(seed int64) ([]cellPlan, error) {
			rng := rand.New(rand.NewSource(seed))
			plans := make([]cellPlan, 2)
			for c := range plans {
				plans[c].cfg = cellConfig(c, phy.BW20MHz)
				for k := 0; k < peakRing; k++ {
					// One UE at each of four high MCS, in a seeded order: the
					// work of a subframe is the same for every seed.
					high := []phy.MCS{22, 24, 26, 28}
					rng.Shuffle(len(high), func(i, j int) { high[i], high[j] = high[j], high[i] })
					u := 0
					plans[c].works = append(plans[c].works, uniformWork(plans[c].cfg.ID, k, 4, 25, 25,
						func() phy.MCS { u++; return high[u-1] }, peakMargin))
				}
			}
			return plans, nil
		},
	},
	{
		name: "ul_lowphy", workers: 1, scale: 1e6, window: 1, procs: 1,
		build: func(seed int64) ([]cellPlan, error) {
			plans := make([]cellPlan, 8)
			for c := range plans {
				plans[c].cfg = cellConfig(c, phy.BW20MHz)
				// Frequency-selective scheduling: the two UEs share the 6 PRBs
				// of the band whose weakest subcarrier is strongest, as a
				// scheduler that sees the channel would place them, and a
				// realisation that fades even there by more than 3 dB is
				// drawn again, so that no block sits in a fading null.
				var h *phy.ChannelResponse
				var first int
				for try := int64(0); ; try++ {
					var err error
					if h, err = phy.NewChannelResponse(phy.ProfileEPA, phy.BW20MHz, seed*101+int64(c)+1000*try); err != nil {
						return nil, err
					}
					var gain float64
					if first, gain = bestPRBs(h, 6); gain >= 0.5 {
						break
					}
				}
				plans[c].fading = h
				for k := 0; k < lowphyRing; k++ {
					w := uniformWork(plans[c].cfg.ID, k, 2, 3, 3, func() phy.MCS { return 4 }, lowphyMargin)
					for u := range w.Allocations {
						w.Allocations[u].FirstPRB += first
					}
					plans[c].works = append(plans[c].works, w)
				}
			}
			return plans, nil
		},
	},
	{
		name: "ul_paced_harq", workers: 2, scale: float64(pacedTTI / time.Millisecond), period: pacedTTI, window: 4, procs: 3,
		build: func(seed int64) ([]cellPlan, error) {
			classes := traffic.StandardMix(3)
			profiles := make([]traffic.CellProfile, len(classes))
			for i, c := range classes {
				profiles[i] = traffic.DefaultProfile(c)
			}
			// The UE population and its schedule are the workload's definition
			// (generator seed 1): how much compute a TTI offers must not change
			// with --seed, or latencies under 0.65 utilisation would differ
			// between seeds by more than their bounds. The seed draws the
			// payloads and the noise, and with them which blocks fail.
			gen, err := traffic.NewGenerator(phy.BW10MHz, profiles, 1, 12)
			if err != nil {
				return nil, err
			}
			plans := make([]cellPlan, 4)
			for c := 0; c < 3; c++ {
				plans[c].cfg = cellConfig(c, phy.BW10MHz)
				plans[c].lossy = true
				for k := 0; k < pacedRing; k++ {
					w, err := gen.Subframe(c, frame.TTI(k))
					if err != nil {
						return nil, err
					}
					plans[c].works = append(plans[c].works, w)
				}
			}
			// The HARQ cell: blocks of 8 TTIs of RV 0 on processes 0-7, each
			// followed by 8 TTIs carrying the RV 2 retransmissions.
			hc := &plans[3]
			hc.cfg = cellConfig(3, phy.BW10MHz)
			hc.retxOf = make([]int, pacedRing)
			for k := 0; k < pacedRing; k++ {
				w := uniformWork(hc.cfg.ID, k, 4, 6, 6, func() phy.MCS { return 16 }, harqMargin)
				hc.retxOf[k] = -1
				if k%16 >= 8 {
					hc.retxOf[k] = k - 8
					for i := range w.Allocations {
						w.Allocations[i].RV = 2
					}
				}
				hc.works = append(hc.works, w)
			}
			return plans, nil
		},
	},
}

// bestPRBs returns the first PRB of the n-PRB window whose weakest
// subcarrier's power gain is largest, and that gain.
func bestPRBs(h *phy.ChannelResponse, n int) (first int, gain float64) {
	gain = -1
	for f := 0; (f+n)*phy.SubcarriersPerPRB <= len(h.H); f++ {
		weakest := math.Inf(1)
		for _, g := range h.H[f*phy.SubcarriersPerPRB : (f+n)*phy.SubcarriersPerPRB] {
			weakest = min(weakest, real(g)*real(g)+imag(g)*imag(g))
		}
		if weakest > gain {
			first, gain = f, weakest
		}
	}
	return first, gain
}

func findUplink(name string) *ulWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ulSlot is one pre-generated cell-subframe of a ring: the I/Q the RRH
// emulator produced for it in set-up, the work that describes it and the
// transport blocks that were sent, plus the state of its current replay.
type ulSlot struct {
	cell     *ulCell
	samples  []complex128
	work     frame.SubframeWork
	payloads [][]byte
	first    *ulSlot // the slot this one retransmits, nil for first transmissions
	onDone   func(*dataplane.Task)

	// Written by the load generator before the slot's tasks are submitted,
	// read by the workers in onDone (Submit's lock orders the two).
	release time.Time
	tti     int           // index of the TTI in the current section
	yard    time.Duration // the yardstick run just before the release, 0 if none
	root    uint64
	live    frame.SubframeWork // the work as submitted (retransmissions filtered)

	pending    atomic.Int32
	lastFinish atomic.Int64 // ns since the engine's base
	// failed[i] is set when allocation i's latest first transmission was not
	// decoded; the retransmission slot reads it eight TTIs later.
	failed []atomic.Bool
	// iters and tasks describe the slot's latest replay; summed over the
	// ring they give an iteration count that repeats exactly per seed.
	iters, tasks atomic.Int64
}

type ulCell struct {
	plan  cellPlan
	proc  *dataplane.CellProcessor
	slots []*ulSlot
}

// ulRound is what the harness keeps of one finished cell-subframe.
type ulRound struct {
	latency time.Duration // release -> last task finished
	yard    time.Duration
}

// taskRec is what the harness keeps of one finished task.
type taskRec struct {
	tti                 int // the TTI's index in the timed section
	latency, wait, exec time.Duration
	yard                time.Duration // the yardstick time taken with the task's subframe
	bitIters            int64         // information bits per code block x turbo iterations
	bits                int           // transport block size
	kind                taskKind
	outcome             taskOutcome
}

type taskKind uint8

const (
	kindPlain taskKind = iota // no retransmission scheduled, failure unexpected
	kindLossy                 // no retransmission scheduled, at the link-adaptation SNR
	kindFirst                 // HARQ cell, first transmission
	kindRetx                  // HARQ cell, retransmission
)

type taskOutcome uint8

const (
	delivered taskOutcome = iota // decoded in time with the transmitted payload
	crcFailed
	late     // decoded with the transmitted payload, after the deadline
	errored  // the decode returned another error
	mismatch // CRC passed with a payload that was not sent
)

// decoded reports whether the transmitted payload came out, in time or not.
// Unlike delivered it does not depend on how the host scheduled the run.
func (o taskOutcome) decoded() bool { return o == delivered || o == late }

// ulEngine owns one set-up of an uplink workload: the rings, the pool, the
// cell processors and the records of the current measurement window.
type ulEngine struct {
	wl    *ulWorkload
	cells []*ulCell
	pool  *dataplane.Pool
	tr    *tracer
	base  time.Time
	slots chan struct{} // closed-loop window: one token per cell-subframe in flight
	// inflight counts the cell-subframes whose last onDone has not run yet.
	// Pool.Drain is not enough to end a section: it returns once the last
	// task is accounted for, which is before that task's OnDone runs.
	inflight sync.WaitGroup
	// paced is set by drive before it submits anything: the open loop takes
	// no window token.
	paced bool

	genPerSubframe time.Duration

	recording atomic.Bool
	mu        sync.Mutex
	tasks     []taskRec
	rounds    []ulRound // one per cell-subframe, in completion order
}

func newULEngine(wl *ulWorkload, seed int64, tr *tracer) (*ulEngine, error) {
	genStart := time.Now()
	plans, err := wl.build(seed)
	if err != nil {
		return nil, err
	}
	// The pool is built as pran-agent builds it: no kernel, front-end, batch
	// or degrade field is set, so the repo's defaults are what is measured.
	// AbandonLate stays off on every workload: which tasks a pool drops at
	// their deadline is decided by the host's stalls, not by the seed, and a
	// run's work and its failed count must repeat.
	pool, err := dataplane.NewPool(dataplane.Config{
		Workers: wl.workers, Policy: dataplane.EDF, DeadlineScale: wl.scale,
	})
	if err != nil {
		return nil, err
	}
	e := &ulEngine{wl: wl, pool: pool, tr: tr, base: time.Now(), slots: make(chan struct{}, wl.window)}
	nslots := 0
	for _, plan := range plans {
		em, err := dataplane.NewRRHEmulator(plan.cfg, seed*131+int64(plan.cfg.ID))
		if err != nil {
			return nil, errors.Join(err, pool.Close())
		}
		em.Fading = plan.fading
		proc, err := dataplane.NewCellProcessor(plan.cfg, pool)
		if err != nil {
			return nil, errors.Join(err, pool.Close())
		}
		proc.EstimateChannel = plan.fading != nil
		c := &ulCell{plan: plan, proc: proc}
		for k, work := range plan.works {
			s := &ulSlot{cell: c, work: work, failed: make([]atomic.Bool, len(work.Allocations))}
			if plan.retxOf != nil && plan.retxOf[k] >= 0 {
				s.first = c.slots[plan.retxOf[k]]
				s.payloads = s.first.payloads
			} else if s.payloads, err = em.RandomPayloads(work); err != nil {
				return nil, errors.Join(err, pool.Close())
			}
			samples, err := em.Emit(work, s.payloads)
			if err != nil {
				return nil, errors.Join(err, pool.Close())
			}
			s.samples = append([]complex128(nil), samples...)
			s.live.Allocations = make([]frame.Allocation, 0, len(work.Allocations))
			s.onDone = func(t *dataplane.Task) { e.taskDone(s, t) }
			c.slots = append(c.slots, s)
			nslots++
		}
		e.cells = append(e.cells, c)
	}
	e.genPerSubframe = time.Since(genStart) / time.Duration(nslots)
	return e, nil
}

func (e *ulEngine) close() error { return e.pool.Close() }

func (e *ulEngine) ring() int { return len(e.cells[0].slots) }

// allocIndex finds the slot's allocation a task decoded. Every task comes
// from an allocation of the slot it was submitted with.
func (s *ulSlot) allocIndex(a frame.Allocation) int {
	for i := range s.work.Allocations {
		if s.work.Allocations[i].FirstPRB == a.FirstPRB {
			return i
		}
	}
	panic(fmt.Sprintf("task for PRB %d is not in cell %d tti %d", a.FirstPRB, s.work.Cell, s.work.TTI))
}

// taskDone runs on a pool worker after every task. It checks the decoded
// payload byte for byte against the transport block that was sent.
func (e *ulEngine) taskDone(s *ulSlot, t *dataplane.Task) {
	i := s.allocIndex(t.Alloc)
	out := delivered
	switch {
	case t.Err == nil && !bytes.Equal(t.Payload, s.payloads[i]):
		out = mismatch
	case errors.Is(t.Err, phy.ErrCRC):
		out = crcFailed
	case t.Err != nil:
		out = errored
	case t.Missed():
		out = late
	}
	kind := kindPlain
	switch {
	case s.first != nil:
		kind = kindRetx
	case s.cell.plan.retxOf != nil:
		kind = kindFirst
		s.failed[i].Store(!out.decoded())
	case s.cell.plan.lossy:
		kind = kindLossy
	}
	s.iters.Add(int64(t.TurboIterations))

	finished := t.Finished
	if e.recording.Load() {
		started := t.Started
		rec := taskRec{
			tti: s.tti, yard: s.yard,
			latency: finished.Sub(s.release), wait: started.Sub(t.Enqueued), exec: finished.Sub(started),
			bits: len(s.payloads[i]), kind: kind, outcome: out,
		}
		if seg, err := phy.Segment(rec.bits + 24); err == nil {
			rec.bitIters = int64(seg.K) * int64(t.TurboIterations)
		}
		e.mu.Lock()
		e.tasks = append(e.tasks, rec)
		e.mu.Unlock()
		e.tr.add(spanQueueWait, t.Enqueued, started, 0, s.root, s.root)
		e.tr.add(spanExec, started, finished, 0, s.root, s.root)
	}
	fin := finished.Sub(e.base).Nanoseconds()
	for {
		cur := s.lastFinish.Load()
		if fin <= cur || s.lastFinish.CompareAndSwap(cur, fin) {
			break
		}
	}
	if s.pending.Add(-1) == 0 {
		e.subframeDone(s)
	}
}

// subframeDone closes a cell-subframe's round once its last task finished.
func (e *ulEngine) subframeDone(s *ulSlot) {
	end := e.base.Add(time.Duration(s.lastFinish.Load()))
	if e.recording.Load() {
		e.mu.Lock()
		e.rounds = append(e.rounds, ulRound{latency: end.Sub(s.release), yard: s.yard})
		e.mu.Unlock()
		e.tr.add(spanSubframe, s.release, end, s.root, 0, s.root)
	}
	if !e.paced {
		<-e.slots
	}
	e.inflight.Done()
}

// window is what the load generator itself measured over one timed section.
type ulWindow struct {
	wall        time.Duration // the section's length, less the yardstick runs
	yard        time.Duration
	subframes   int
	ingest      time.Duration
	ingestByTTI []time.Duration
	lag         []float64 // ms the generator ran behind each TTI's due time
	// Closed loop: when each cell-subframe's turn began (with its yardstick
	// run) and when the last one ended; a turn's length less its yardstick
	// is what the cell-subframe cost the one P the loop runs on.
	starts        []time.Time
	end           time.Time
	queueDepthMax int
}

// awaitDone blocks until every task of the slot's current replay is done. It
// returns at once unless the pool lags the load generator by seconds.
func (s *ulSlot) awaitDone() {
	if s.pending.Load() == 0 {
		return
	}
	for s.pending.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	// The pool hands a task's HARQ buffer back just after its OnDone, which
	// is where pending is counted down: let that worker get there.
	time.Sleep(time.Millisecond)
}

// ingest replays one slot into its cell processor.
func (e *ulEngine) ingest(s *ulSlot, k int, release time.Time, yard time.Duration, w *ulWindow) error {
	// A HARQ process is stop-and-wait: a retransmission is not sent before
	// the first attempt is decoded. Were it ingested earlier (the open loop
	// does not wait for the pool, and a stall of the host can put the pool
	// half a second behind), the retransmission would be chosen from a stale
	// outcome and decoded without combining, and which blocks fail would
	// depend on the host. The wait is charged to the tasks: latency runs from
	// the due time. The slot's own previous replay, a ring pass earlier, must
	// be done too before its counters are reused.
	if s.first != nil {
		s.first.awaitDone()
	}
	s.awaitDone()
	s.release, s.tti, s.yard = release, k, yard
	s.root = e.tr.id()
	s.live.Cell, s.live.TTI = s.work.Cell, s.work.TTI
	s.live.Allocations = s.live.Allocations[:0]
	for i, a := range s.work.Allocations {
		if s.first == nil || s.first.failed[i].Load() {
			s.live.Allocations = append(s.live.Allocations, a)
		}
	}
	n := len(s.live.Allocations)
	s.tasks.Store(int64(n))
	s.iters.Store(0)
	s.lastFinish.Store(0)
	s.pending.Store(int32(n))
	e.inflight.Add(1)

	proc := s.cell.proc
	fft0, est0 := proc.FFTTime, proc.EstimateTime
	start := time.Now()
	if err := proc.IngestSubframe(s.samples, s.live, s.onDone); err != nil {
		return fmt.Errorf("ingest cell %d tti %d: %w", s.work.Cell, s.work.TTI, err)
	}
	end := time.Now()
	w.ingest += end.Sub(start)
	w.ingestByTTI[k] += end.Sub(start)
	w.subframes++
	if s.root != 0 {
		id := e.tr.add(spanIngest, start, end, 0, s.root, s.root)
		fftEnd := start.Add(proc.FFTTime - fft0)
		e.tr.add(spanFFT, start, fftEnd, 0, id, s.root)
		if d := proc.EstimateTime - est0; d > 0 {
			e.tr.add(spanEstimate, fftEnd, fftEnd.Add(d), 0, id, s.root)
		}
	}
	if n == 0 { // an empty subframe is done once its FFT is
		s.lastFinish.Store(end.Sub(e.base).Nanoseconds())
		e.subframeDone(s)
	}
	return nil
}

// drive offers load for d (0: exactly one closed-loop pass of the ring, the
// warm-up), from the start of the ring, and returns once everything
// submitted has finished.
func (e *ulEngine) drive(d time.Duration) (ulWindow, error) {
	var w ulWindow
	ring := e.ring()
	e.paced = e.wl.period > 0 && d > 0
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * e.wl.period)
		var done bool
		switch {
		case d == 0:
			done = k == ring
		case e.paced:
			done = due.Sub(start) >= d
		default:
			done = time.Since(start) >= d
		}
		if done {
			break
		}
		if e.paced {
			// Absolute due times: a late TTI does not push the later ones.
			time.Sleep(time.Until(due))
			w.lag = append(w.lag, ms(time.Since(due)))
		}
		w.ingestByTTI = append(w.ingestByTTI, 0)
		for _, c := range e.cells {
			release, yard := due, time.Duration(0)
			if !e.paced {
				e.slots <- struct{}{}
				if d > 0 {
					w.starts = append(w.starts, time.Now())
					yard = yardstick()
					w.yard += yard
				}
				release = time.Now()
			}
			if err := e.ingest(c.slots[k%ring], k, release, yard, &w); err != nil {
				e.pool.Drain()
				return w, err
			}
		}
		w.queueDepthMax = max(w.queueDepthMax, e.pool.QueueLen())
	}
	e.inflight.Wait()
	w.end = time.Now()
	w.wall = w.end.Sub(start) - w.yard
	if e.paced {
		w.wall = d
	}
	return w, nil
}
