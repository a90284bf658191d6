package experiments

import (
	"fmt"
	"runtime"
	"time"

	"pran/internal/dataplane"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// telemetryTrial drives nTasks copies of the template through a
// single-worker pool and returns the best-of-trials mean wall-clock per
// task. disable toggles the pool's telemetry recording; when enabled the
// trial uses its own registry so the measurement exercises the real record
// path without polluting the process default. Taking the minimum over
// trials is the standard noise filter for wall-clock microbenchmarks:
// interference only ever adds time.
func telemetryTrial(tpl *taskTemplate, nTasks, trials int, disable bool) (time.Duration, error) {
	best := time.Duration(0)
	for trial := 0; trial < trials; trial++ {
		cfg := dataplane.Config{
			Workers: 1, Policy: dataplane.EDF, DeadlineScale: 1,
			DisableTelemetry: disable,
		}
		if !disable {
			cfg.Telemetry = telemetry.New(runtime.GOMAXPROCS(0))
		}
		pool, err := dataplane.NewPool(cfg)
		if err != nil {
			return 0, err
		}
		done := make(chan struct{}, nTasks)
		var start time.Time
		// Task 0 is untimed: it builds the worker's processor and decoders.
		for i := 0; i <= nTasks; i++ {
			if i == 1 {
				<-done
				start = time.Now()
			}
			now := time.Now()
			t := &dataplane.Task{
				Cell: 1, PCI: tpl.pci, TTI: 1,
				Alloc: tpl.alloc, REs: tpl.res, N0: tpl.n0,
				Enqueued: now, Deadline: now.Add(time.Hour),
				OnDone: func(*dataplane.Task) { done <- struct{}{} },
			}
			if err := pool.Submit(t); err != nil {
				pool.Close()
				return 0, err
			}
		}
		for i := 0; i < nTasks; i++ {
			<-done
		}
		per := time.Since(start) / time.Duration(nTasks)
		pool.Close()
		if best == 0 || per < best {
			best = per
		}
	}
	return best, nil
}

// measureRecordNs times the raw telemetry record path — one counter
// increment, one gauge set, one histogram observation — and returns the
// mean nanoseconds per individual record operation.
func measureRecordNs() float64 {
	reg := telemetry.New(runtime.GOMAXPROCS(0))
	c := reg.Counter("e14.counter")
	g := reg.Gauge("e14.gauge")
	h := reg.LatencyHistogram("e14.hist")
	const reps = 1 << 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		c.Inc(0)
		g.Set(int64(i))
		h.Observe(0, 1e-3)
	}
	return time.Since(start).Seconds() / reps * 1e9 / 3
}

// recordOpsPerTask counts the telemetry operations one pool task triggers:
// submitted.Inc + queue-depth set on submit, queue-depth set on dequeue,
// per-cell task count, completed.Inc, worker-busy add, and five histogram
// observations (latency, proc time, three stages).
const recordOpsPerTask = 11

// E14TelemetryOverhead measures what default-on telemetry costs on the E1
// uplink decode chain at 100 PRB: per-task wall clock through a
// single-worker pool with recording enabled vs disabled, alongside the
// microbenchmarked record-path cost and the overhead it predicts. Expected
// shape: the record path is a handful of uncontended atomic RMWs per
// metric (~tens of ns), so against a decode of a millisecond the predicted
// overhead is well below 0.1% and the measured end-to-end delta is
// noise-bounded under 1%.
func E14TelemetryOverhead(quick bool) (Result, error) {
	// A default-path task is about a millisecond at these shapes, so a
	// trial needs on the order of a hundred of them before its wall clock
	// rises above scheduler granularity.
	mcsGrid := []int{4, 13, 27}
	nTasks, trials := 120, 3
	if quick {
		mcsGrid = []int{13}
		// More trials than the full run, not fewer: the quick run is what
		// CI gates on, and on a shared single-core host the per-side
		// minimum needs several interleaved samples before the off/on
		// ratio stops reflecting co-tenant bursts.
		nTasks, trials = 150, 5
	}
	res := Result{
		ID:      "E14",
		Title:   "Telemetry overhead on the uplink decode chain, 100 PRB (measured pool)",
		Header:  []string{"mcs", "off(ms)", "on(ms)", "overhead", "predicted"},
		Metrics: map[string]float64{},
	}
	recNs := measureRecordNs()
	res.Metrics["record_ns_per_op"] = recNs
	worst := 0.0
	for _, mcs := range mcsGrid {
		tpl, err := makeTemplate(phy.MCS(mcs), 100, 1400+int64(mcs), time.Hour, phy.DecodeProfile{})
		if err != nil {
			return res, err
		}
		// Interleave the off/on trials and keep the per-side minimum: the
		// overhead is a ratio of the two, so sampling one side only inside
		// a slow frequency-scaling window would read as fake overhead (or
		// fake speedup) even though each side is already best-of-trials.
		var off, on time.Duration
		for trial := 0; trial < trials; trial++ {
			o, err := telemetryTrial(tpl, nTasks, 1, true)
			if err != nil {
				return res, err
			}
			n, err := telemetryTrial(tpl, nTasks, 1, false)
			if err != nil {
				return res, err
			}
			if trial == 0 || o < off {
				off = o
			}
			if trial == 0 || n < on {
				on = n
			}
		}
		overhead := float64(on)/float64(off) - 1
		if overhead < 0 {
			overhead = 0 // noise floor: telemetry cannot make decoding faster
		}
		predicted := recordOpsPerTask * recNs / float64(off.Nanoseconds())
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", mcs),
			ms(off.Seconds()),
			ms(on.Seconds()),
			fmt.Sprintf("%.3f%%", overhead*100),
			fmt.Sprintf("%.4f%%", predicted*100),
		})
		res.Metrics[fmt.Sprintf("overhead_frac_mcs%d", mcs)] = overhead
		res.Metrics[fmt.Sprintf("predicted_frac_mcs%d", mcs)] = predicted
		if overhead > worst {
			worst = overhead
		}
	}
	res.Metrics["overhead_frac"] = worst
	res.Notes = append(res.Notes,
		fmt.Sprintf("record path: %.1f ns per operation (uncontended atomic RMW, zero-alloc), ~%d operations per task", recNs, recordOpsPerTask),
		"off/on columns are best-of-trials per-task wall clock through a 1-worker pool; overhead is clamped at the noise floor",
		"acceptance: measured overhead < 1% (EXPERIMENTS.md); the shape test bounds it at 10% to tolerate loaded CI hosts")
	return res, nil
}
