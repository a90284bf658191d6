package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pran/internal/cluster"
	"pran/internal/dataplane"
)

// overloadStats is one load point's outcome for the overload curve.
type overloadStats struct {
	// goodputMbps is on-time CRC-passing transport-block bits over the
	// counted window's wall time, in Mbit/s.
	goodputMbps float64
	// missRate is the counted tasks' deadline-miss fraction.
	missRate float64
	// level is the pool's degradation level when the run drained.
	level cluster.DegradationLevel
}

// runOverloadPoint drives a pool at the offered load factor (1.0 = the
// worker's measured capacity; overload points exceed it) with Poisson
// arrivals over the templates and returns goodput/miss accounting. It is
// runLoadPoint's sibling with bit accounting: overload experiments care
// about how many useful bits survive, not just the miss fraction.
func runOverloadPoint(tpls []*taskTemplate, cfg dataplane.Config, load float64, nTasks int, seed int64) (overloadStats, error) {
	pool, err := dataplane.NewPool(cfg)
	if err != nil {
		return overloadStats{}, err
	}
	defer pool.Close()
	mean := 0.0
	for _, tp := range tpls {
		mean += tp.cost.Seconds()
	}
	mean /= float64(len(tpls))
	meanIAT := mean / (load * float64(cfg.Workers))
	rng := rand.New(rand.NewSource(seed))

	warmup := nTasks / 10
	if warmup < 5 {
		warmup = 5
	}
	total := nTasks + warmup
	var goodBits int64
	var missed int
	done := make(chan struct{}, total)
	next := time.Now()
	var windowStart time.Time
	for i := 0; i < total; i++ {
		now := time.Now()
		if next.After(now) {
			time.Sleep(next.Sub(now))
			now = time.Now()
		}
		ti := rng.Intn(len(tpls))
		tpl := tpls[ti]
		counted := i >= warmup
		if counted && windowStart.IsZero() {
			windowStart = now
		}
		tbs, err := tpl.alloc.TransportBlockSize()
		if err != nil {
			return overloadStats{}, err
		}
		bits := int64(tbs)
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
				if counted {
					if t.Missed() {
						missed++
					} else if t.Err == nil {
						goodBits += bits
					}
				}
				done <- struct{}{}
			},
		}
		if err := pool.Submit(t); err != nil {
			return overloadStats{}, err
		}
		next = next.Add(time.Duration(rng.ExpFloat64() * meanIAT * float64(time.Second)))
	}
	for i := 0; i < total; i++ {
		<-done
	}
	elapsed := time.Since(windowStart)
	out := overloadStats{
		missRate: float64(missed) / float64(nTasks),
		level:    pool.Level(),
	}
	if elapsed > 0 {
		out.goodputMbps = float64(goodBits) / elapsed.Seconds() / 1e6
	}
	return out, nil
}

// E19OverloadCurve measures compute-aware graceful degradation under
// overload: offered load is swept from half the pool's capacity to 3×, and
// each point runs twice — once on a pool that never enables the ladder's
// controller, so every cell stays at level 0 (the overload cliff), and once
// with the degradation ladder's headroom
// controller enabled (the slope). Under overload the ladder should climb
// (iteration caps → HARQ shed), cutting compute per bit so goodput keeps
// rising past the cliff instead of flatlining while deadline misses soak up
// the excess. Deadline-miss rates should grow monotonically with offered
// load in both variants, the ladder's at or below the baseline's at every
// load (miss_monotone checks both).
func E19OverloadCurve(quick bool) (Result, error) {
	loads := []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
	nTasks := 240
	if quick {
		loads = []float64{0.5, 1.0, 2.0, 3.0}
		nTasks = 150
	}
	// The deadline scale makes the bulk decode fill a fifth of the per-task
	// budget, never below real LTE time.
	bulk, err := makeTemplate(16, 25, 61, 0)
	if err != nil {
		return Result{ID: "E19"}, err
	}
	narrow, err := makeTemplate(10, 4, 62, 0)
	if err != nil {
		return Result{ID: "E19"}, err
	}
	scale := math.Max(float64(bulk.cost)/(0.2*float64(dataplane.HARQBudget)), 1)
	budget := time.Duration(float64(dataplane.HARQBudget) * scale)
	bulk.budget, narrow.budget = budget, budget
	tpls := []*taskTemplate{bulk, narrow}

	res := Result{
		ID:      "E19",
		Title:   "Overload curve: goodput and deadline misses, degradation ladder on/off",
		Header:  []string{"load", "base-goodput", "ladder-goodput", "base-miss", "ladder-miss", "ladder-level"},
		Metrics: map[string]float64{},
	}
	// The baseline never moves a cell off level 0; the ladder variant
	// runs the headroom controller with a snappy period and short dwell so
	// adaptation completes within the measured window even on quick runs.
	// Both use EDF and late abandonment (a late UL decode is useless —
	// burning the worker on it only deepens the backlog).
	baseCfg := dataplane.Config{
		Workers: 1, DeadlineScale: scale,
		Policy: dataplane.EDF, AbandonLate: true,
	}
	ladderCfg := baseCfg
	ladderCfg.Degrade = dataplane.DegradeConfig{
		Enable:       true,
		Period:       budget / 8,
		DwellPeriods: 1,
	}
	var prevBase, prevLadder float64
	missMonotone := 1.0
	const missTol = 0.02 // Poisson-arrival noise allowance between points
	for i, load := range loads {
		base, err := runOverloadPoint(tpls, baseCfg, load, nTasks, seedFor(1900+int64(i)))
		if err != nil {
			return res, err
		}
		ladder, err := runOverloadPoint(tpls, ladderCfg, load, nTasks, seedFor(1900+int64(i)))
		if err != nil {
			return res, err
		}
		// Both curves have to be monotone in load, and the ladder's has to
		// stay at or below the baseline's at every load.
		if i > 0 && (base.missRate < prevBase-missTol || ladder.missRate < prevLadder-missTol) {
			missMonotone = 0
		}
		if ladder.missRate > base.missRate+missTol {
			missMonotone = 0
		}
		prevBase, prevLadder = base.missRate, ladder.missRate
		res.Rows = append(res.Rows, []string{
			f(load),
			f(base.goodputMbps),
			f(ladder.goodputMbps),
			f(base.missRate),
			f(ladder.missRate),
			ladder.level.String(),
		})
		res.Metrics[fmt.Sprintf("goodput_base_x%.1f", load)] = base.goodputMbps
		res.Metrics[fmt.Sprintf("goodput_ladder_x%.1f", load)] = ladder.goodputMbps
		res.Metrics[fmt.Sprintf("miss_base_x%.1f", load)] = base.missRate
		res.Metrics[fmt.Sprintf("miss_ladder_x%.1f", load)] = ladder.missRate
		if load == 2.0 && base.goodputMbps > 0 {
			res.Metrics["goodput_gain_x2.0"] = ladder.goodputMbps / base.goodputMbps
		}
	}
	res.Metrics["miss_monotone"] = missMonotone
	res.Notes = append(res.Notes,
		fmt.Sprintf("default decode path; deadline scale ×%.1f from the bulk decode; offered load 1.0 = one worker's measured decode capacity", scale),
		fmt.Sprintf("templates: MCS 16 / 25 PRB (%.2f ms) + MCS 10 / 4 PRB (%.2f ms), full budget",
			bulk.cost.Seconds()*1e3, narrow.cost.Seconds()*1e3),
		"goodput = on-time CRC-passing transport-block bits / wall time; ladder = headroom-controlled degradation (cluster.DegradationLevel)")
	return res, nil
}
