package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// spec mirrors BENCHMARK.json.
type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []e2eDef   `json:"end_to_end"`
	PerLayer []layerDef `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec specFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesTables pins BENCHMARK.json to the metric and workload
// tables the harness prints from.
func TestSpecMatchesTables(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the harness has %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	for i, m := range spec.EndToEnd {
		if m != endToEndDefs[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, endToEndDefs[i])
		}
	}
	if len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the harness has %d", len(spec.PerLayer), len(perLayerDefs))
	}
	for i, m := range spec.PerLayer {
		if m != perLayerDefs[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, perLayerDefs[i])
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload for about a second, traced
// (a traced run measures both kinds of metric), and checks that every
// end-to-end metric is there, that the driver's line carries every per-layer
// metric with its declared unit, and that the run is correct.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	// The per-layer metrics each workload must measure; the others may be
	// absent there (the layer is not exercised).
	mustHave := map[string][]string{
		"ul_peak":       {"ingest.busy_share", "phy.turbo_share", "phy.turbo_iters_per_task", "pool.exec_p50_ms", "bench.failed_share", "cluster.model_residual"},
		"ul_lowphy":     {"ingest.estimate_per_subframe_us", "ingest.busy_share", "phy.turbo_share", "pool.dispatch_overhead_per_task_us"},
		"ul_paced_harq": {"harq.first_tx_fail_share", "harq.state_bytes", "bench.generator_lag_p99_ms", "pool.queue_wait_p99_ms"},
		ctrlChurn:       {"controller.step_p50_ms", "controller.full_place_share", "ctrlproto.push_ack_rtt_p50_us", "ctrlproto.bytes_per_round", "bench.self_time_share"},
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			r, err := runWorkload(w, 1, 1, true, "", 1)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Errorf("incorrect run: %v", r.Problems)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
			}
			for _, d := range endToEndDefs {
				if v, ok := r.vals[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, present %v", d.Name, v, ok)
				}
			}
			for _, name := range mustHave[w] {
				if _, ok := r.vals[name]; !ok {
					t.Errorf("per-layer metric %s was not measured", name)
				}
			}
			line, err := contract(r)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayerDefs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("driver line: per-layer metric %s = %+v, want a number in %s", d.Name, m, d.Unit)
				}
			}
			if len(line.Metrics) != len(perLayerDefs) {
				t.Errorf("driver line carries %d metrics, want %d", len(line.Metrics), len(perLayerDefs))
			}
		})
	}
}

// ringIterations sets ul_peak up for a seed and returns the turbo
// iterations per task of one pass over its ring.
func ringIterations(t *testing.T, seed int64) float64 {
	t.Helper()
	e, err := newULEngine(findUplink("ul_peak"), seed, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.warmup(); err != nil {
		t.Fatal(err)
	}
	var iters, tasks int64
	for _, c := range e.cells {
		for _, s := range c.slots {
			iters += s.iters.Load()
			tasks += s.tasks.Load()
		}
	}
	return float64(iters) / float64(tasks)
}

// TestIterationCountRepeats checks the count a later change may rest a claim
// on: the same for one seed, another for another.
func TestIterationCountRepeats(t *testing.T) {
	a, b, c := ringIterations(t, 1), ringIterations(t, 1), ringIterations(t, 2)
	if a != b {
		t.Errorf("seed 1 gave %v then %v turbo iterations per task", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 both gave %v turbo iterations per task", a)
	}
}

// TestPayloadCheckTrips corrupts one expected transport block and checks
// that the run is reported incorrect.
func TestPayloadCheckTrips(t *testing.T) {
	e, err := newULEngine(findUplink("ul_lowphy"), 1, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.cells[0].slots[0].payloads[0][0] ^= 1
	w, err := e.measure(200*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.problems) == 0 || w.failed == 0 {
		t.Errorf("a corrupted expectation went unnoticed: failed %d, problems %v", w.failed, w.problems)
	}
}

// TestPlacementCheckTrips lets one agent deny a cell it owns and checks that
// the placement comparison reports it.
func TestPlacementCheckTrips(t *testing.T) {
	e, err := newCtrlEngine(1, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if _, err := e.runRound(); err != nil {
		t.Fatal(err)
	}
	placement := e.ctl.Placement()
	if len(placement) != ctrlCells {
		t.Fatalf("%d cells placed, want %d", len(placement), ctrlCells)
	}
	owns := func(a int, cell uint16) bool { return e.stubs[a].owns(cell) }
	if p := e.checkPlacement(placement, owns); len(p) != 0 {
		t.Fatalf("honest agents disagree with the controller: %v", p)
	}
	liar := func(a int, cell uint16) bool { return cell != 7 && owns(a, cell) }
	if p := e.checkPlacement(placement, liar); len(p) == 0 {
		t.Error("an agent that lost cell 7 went unnoticed")
	}
}
