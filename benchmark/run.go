package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// processStart stands for the start of the process: the first set-up is
// timed from it.
var processStart = time.Now()

// setups is how often a run sets the workload up; setup_s is the median.
const setups = 3

const ctrlChurn = "ctrl_churn"

var workloadNames = []string{"ul_peak", "ul_lowphy", "ul_paced_harq", ctrlChurn}

// engine is one set-up of a workload.
type engine interface {
	// warmup makes one full pass (of every ring, or of the controller's
	// first few hundred rounds) so that caches fill and lazy set-up ends.
	warmup() error
	// measure times the workload for d, recording spans when trace is set.
	measure(d time.Duration, trace bool) (*window, error)
	close() error
}

func newEngine(workload string, seed int64, tr *tracer) (engine, error) {
	if workload == ctrlChurn {
		return newCtrlEngine(seed, tr)
	}
	if wl := findUplink(workload); wl != nil {
		return newULEngine(wl, seed, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

// result is one run of one workload.
type result struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	Trace       bool     `json:"trace"`
	Correct     bool     `json:"correct"`
	Attempted   int64    `json:"attempted"`
	Failed      int64    `json:"failed"`
	FailedShare float64  `json:"failed_share"`
	Problems    []string `json:"problems,omitempty"`
	vals        values
}

// runWorkload sets the workload up (setups times, for a steady setup_s),
// measures it for seconds and returns every metric it could take. A traced
// run spends the first half of its time untraced, so that the cost of
// tracing is the difference between two halves of one process.
func runWorkload(workload string, seed int64, seconds float64, trace bool, spansPath string, setups int) (*result, error) {
	if wl := findUplink(workload); wl != nil && wl.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	}
	tr := newTracer()
	var eng engine
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if eng, err = newEngine(workload, seed, tr); err != nil {
			return nil, err
		}
		if err := eng.warmup(); err != nil {
			return nil, errors.Join(err, eng.close())
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := eng.close(); err != nil {
				return nil, err
			}
			eng = nil
			// Return the discarded set-up's memory before the next one
			// allocates, so that peak_rss_mb is one set-up's footprint.
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	defer eng.close()

	d := time.Duration(seconds * float64(time.Second))
	var w *window
	var err error
	if !trace {
		w, err = eng.measure(d, false)
	} else {
		var plain *window
		if plain, err = eng.measure(d/2, false); err == nil {
			if w, err = eng.measure(d/2, true); err == nil {
				w.vals.set("bench.trace_overhead_share", ratio(w.vals[w.primary], plain.vals[plain.primary])-1)
				w.problems = append(w.problems, plain.problems...)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := tr.writeFile(spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	w.vals.set("setup_s", median(setupTimes))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	w.vals.set("peak_rss_mb", rss)
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: len(w.problems) == 0, Attempted: w.attempted, Failed: w.failed, FailedShare: w.failedShare,
		Problems: w.problems, vals: w.vals,
	}, nil
}
