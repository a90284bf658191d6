package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
)

// taskTemplate is a pre-encoded decode job reused to generate load with a
// known per-task cost and deadline budget.
type taskTemplate struct {
	alloc  frame.Allocation
	res    []complex128
	n0     float64
	pci    uint16
	cost   time.Duration // measured single-core decode time
	budget time.Duration // per-task deadline budget
}

// makeTemplate encodes one allocation at its operating point and measures
// its decode cost on the processor a pool worker runs. budget is the class's
// per-task deadline budget.
func makeTemplate(mcs phy.MCS, nprb int, seed int64, budget time.Duration) (*taskTemplate, error) {
	proc, err := phy.NewTransportProcessor(nprb)
	if err != nil {
		return nil, err
	}
	tbs, err := mcs.TransportBlockSize(nprb)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, tbs)
	for i := range payload {
		payload[i] = byte(rng.Intn(2))
	}
	snr := mcs.OperatingSNR() + 3
	syms, err := proc.Encode(mcs, nprb, payload, 9, 77, 1, 0)
	if err != nil {
		return nil, err
	}
	rx := make([]complex128, len(syms))
	copy(rx, syms)
	ch := phy.NewAWGNChannel(snr, seed)
	ch.Apply(rx)
	// Warm, then time.
	if _, err := proc.Decode(mcs, nprb, rx, ch.N0(), 9, 77, 1, 0, nil); err != nil {
		return nil, fmt.Errorf("experiments: template decode failed: %w", err)
	}
	start := time.Now()
	const reps = 5
	for i := 0; i < reps; i++ {
		if _, err := proc.Decode(mcs, nprb, rx, ch.N0(), 9, 77, 1, 0, nil); err != nil {
			return nil, err
		}
	}
	return &taskTemplate{
		alloc:  frame.Allocation{RNTI: 9, FirstPRB: 0, NumPRB: nprb, MCS: mcs, SNRdB: snr},
		res:    rx,
		n0:     ch.N0(),
		pci:    77,
		cost:   time.Since(start) / reps,
		budget: budget,
	}, nil
}

// loadStats extends pool stats with per-class miss accounting.
type loadStats struct {
	dataplane.Stats
	classMiss  []float64 // per-template miss rate
	classCount []int
}

// runLoadPoint drives a pool at the target utilization with Poisson
// arrivals drawn uniformly from the templates, and returns the stats.
// A single worker keeps the measured service time free of cache and
// memory-bandwidth contention, so utilization is well defined.
func runLoadPoint(tpls []*taskTemplate, cfg dataplane.Config, util float64, nTasks int, seed int64) (loadStats, error) {
	pool, err := dataplane.NewPool(cfg)
	if err != nil {
		return loadStats{}, err
	}
	defer pool.Close()
	mean := 0.0
	for _, tp := range tpls {
		mean += tp.cost.Seconds()
	}
	mean /= float64(len(tpls))
	meanIAT := mean / (util * float64(cfg.Workers))
	rng := rand.New(rand.NewSource(seed))

	// The first tasks warm worker caches (processor construction, QPP
	// tables) and the OS scheduler; exclude them from the accounting so
	// cold-start spikes don't masquerade as queueing misses.
	warmup := nTasks / 10
	if warmup < 5 {
		warmup = 5
	}
	total := nTasks + warmup
	missed := make([]int, len(tpls))
	counts := make([]int, len(tpls))
	done := make(chan struct{}, total)
	next := time.Now()
	for i := 0; i < total; i++ {
		now := time.Now()
		if next.After(now) {
			time.Sleep(next.Sub(now))
			now = time.Now()
		}
		ti := rng.Intn(len(tpls))
		tpl := tpls[ti]
		counted := i >= warmup
		if counted {
			counts[ti]++
		}
		t := &dataplane.Task{
			Cell:     1,
			PCI:      tpl.pci,
			TTI:      1, // matches the template's encoded subframe index
			Alloc:    tpl.alloc,
			REs:      tpl.res,
			N0:       tpl.n0,
			Enqueued: now,
			Deadline: now.Add(tpl.budget),
			OnDone: func(t *dataplane.Task) {
				if counted && t.Missed() {
					missed[ti]++
				}
				done <- struct{}{}
			},
		}
		if err := pool.Submit(t); err != nil {
			return loadStats{}, err
		}
		next = next.Add(time.Duration(rng.ExpFloat64() * meanIAT * float64(time.Second)))
	}
	for i := 0; i < total; i++ {
		<-done
	}
	out := loadStats{Stats: pool.Stats()}
	for i := range tpls {
		rate := 0.0
		if counts[i] > 0 {
			rate = float64(missed[i]) / float64(counts[i])
		}
		out.classMiss = append(out.classMiss, rate)
		out.classCount = append(out.classCount, counts[i])
	}
	return out, nil
}

// overallMiss combines the per-class misses into the overall rate.
func (s loadStats) overallMiss() float64 {
	tot, miss := 0, 0.0
	for i, n := range s.classCount {
		tot += n
		miss += s.classMiss[i] * float64(n)
	}
	if tot == 0 {
		return 0
	}
	return miss / float64(tot)
}

// E5DeadlineMiss reconstructs the real-time feasibility figure: deadline
// miss rate vs offered utilization for EDF and FIFO dispatch over a mixed
// workload (bulk wide-band decodes with the full HARQ budget + urgent
// narrow-band decodes with a quarter budget), plus the GC-pressure ablation
// (per-task allocation instead of cached DSP state). Expected shape: low
// misses until ~80–90% utilization then a sharp knee; EDF keeps the urgent
// class's misses far below FIFO (which head-of-line-blocks it behind bulk
// work); naive allocation strictly degrades.
func E5DeadlineMiss(quick bool) (Result, error) {
	utils := []float64{0.5, 0.7, 0.8, 0.9, 0.95}
	nTasks := 400
	if quick {
		utils = []float64{0.6, 0.9}
		nTasks = 120
	}
	// Budget calibration: the bulk decode fills ~30% of its budget, leaving
	// queueing headroom so the knee sits inside the swept range; the urgent
	// class gets half the budget — more than one bulk task's non-preemptive
	// blocking, so EDF (which runs urgent tasks next) can save them while
	// FIFO (which queues them behind the backlog) cannot.
	baseScale, err := deadlineScale()
	if err != nil {
		return Result{ID: "E5"}, err
	}
	scale := baseScale * 2
	budget := time.Duration(float64(dataplane.HARQBudget) * scale)
	bulk, err := makeTemplate(16, 25, 51, budget)
	if err != nil {
		return Result{ID: "E5"}, err
	}
	urgent, err := makeTemplate(10, 4, 52, budget/2)
	if err != nil {
		return Result{ID: "E5"}, err
	}
	tpls := []*taskTemplate{bulk, urgent}

	res := Result{
		ID:      "E5",
		Title:   "Deadline-miss rate vs utilization, mixed workload (measured pool)",
		Header:  []string{"util", "edf-miss", "fifo-miss", "edf-urgent-miss", "fifo-urgent-miss"},
		Metrics: map[string]float64{},
	}
	baseCfg := dataplane.Config{Workers: 1, DeadlineScale: scale}
	for i, u := range utils {
		edfCfg := baseCfg
		edfCfg.Policy = dataplane.EDF
		edf, err := runLoadPoint(tpls, edfCfg, u, nTasks, 900+int64(i))
		if err != nil {
			return res, err
		}
		fifoCfg := baseCfg
		fifoCfg.Policy = dataplane.FIFO
		fifo, err := runLoadPoint(tpls, fifoCfg, u, nTasks, 900+int64(i))
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, []string{
			f(u),
			f(edf.overallMiss()),
			f(fifo.overallMiss()),
			f(edf.classMiss[1]),
			f(fifo.classMiss[1]),
		})
		res.Metrics[fmt.Sprintf("edf_miss_u%.2f", u)] = edf.overallMiss()
		res.Metrics[fmt.Sprintf("fifo_miss_u%.2f", u)] = fifo.overallMiss()
		res.Metrics[fmt.Sprintf("edf_urgent_u%.2f", u)] = edf.classMiss[1]
		res.Metrics[fmt.Sprintf("fifo_urgent_u%.2f", u)] = fifo.classMiss[1]
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("deadline scale ×%.1f (host-calibrated on the default decode path: a full-band decode ≈ 30%% of the HARQ budget, never tighter than the real one)", scale),
		fmt.Sprintf("bulk task: MCS 16 / 25 PRB, %.2f ms, full budget; urgent task: MCS 10 / 4 PRB, %.2f ms, half budget",
			bulk.cost.Seconds()*1e3, urgent.cost.Seconds()*1e3),
		"Poisson arrivals on a single worker (contention-free service time)")
	return res, nil
}
