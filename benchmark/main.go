// Command benchmark is the repo's benchmark: four workloads over the uplink
// data plane and the control plane, end-to-end metrics from an untraced run
// and per-layer metrics from a traced one. See README.md.
//
//	bash benchmark/run.sh --workload ul_peak --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --runs 5 > setA.json
//	bash benchmark/run.sh --compare setA.json setB.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"

	"pran/internal/phy"
)

// metricJSON is one metric on the wire. Value is nil for a per-layer metric
// the workload does not exercise or the program does not export.
type metricJSON struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// fullLine is what a run prints for a result set (-format full): the
// contract's fields, every metric of both kinds, and the failed share that
// also counts the expected channel loss.
type fullLine struct {
	result
	EndToEnd map[string]metricJSON `json:"end_to_end"`
	PerLayer map[string]metricJSON `json:"per_layer"`
}

// envBlock describes where a result set was taken.
type envBlock struct {
	Commit       string `json:"commit"`
	GoVersion    string `json:"go_version"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	BatchAVX2    bool   `json:"phy_batch_avx2"`
	FrontEndAVX2 bool   `json:"phy_front_end_avx2"`
}

// resultSet is what -workload all prints and -compare reads.
type resultSet struct {
	Env     envBlock   `json:"env"`
	Claim   *string    `json:"claim"` // always null: the benchmark claims no gain
	Seed    int64      `json:"seed"`
	Seconds float64    `json:"seconds"`
	Runs    []fullLine `json:"runs"`
}

func environment() envBlock {
	env := envBlock{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		BatchAVX2: phy.BatchAVX2(), FrontEndAVX2: phy.FrontEndAVX2(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func endToEndJSON(v values) map[string]metricJSON {
	out := make(map[string]metricJSON, len(endToEndDefs))
	for _, d := range endToEndDefs {
		out[d.Name] = metricOf(v, d.Name, d.Unit)
	}
	return out
}

func perLayerJSON(v values) map[string]metricJSON {
	out := make(map[string]metricJSON, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.Name] = metricOf(v, d.Name, d.Unit)
	}
	return out
}

func metricOf(v values, name, unit string) metricJSON {
	if x, ok := v[name]; ok {
		return metricJSON{Value: &x, Unit: unit}
	}
	return metricJSON{Unit: unit}
}

// contract renders a result as the driver reads it: the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one, every value a
// number (an unmeasured per-layer metric reads 0).
func contract(r *result) (contractLine, error) {
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed}
	if r.Trace {
		line.Metrics = perLayerJSON(r.vals)
		zero := 0.0
		for name, m := range line.Metrics {
			if m.Value == nil {
				m.Value = &zero
				line.Metrics[name] = m
			}
		}
		return line, nil
	}
	line.Metrics = endToEndJSON(r.vals)
	for name, m := range line.Metrics {
		if m.Value == nil {
			return line, fmt.Errorf("end-to-end metric %s was not measured on %s", name, r.Workload)
		}
	}
	return line, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: ul_peak, ul_lowphy, ul_paced_harq, ctrl_churn, or all")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the timed section")
	trace := flag.Int("trace", 0, "1: record spans and print the per-layer metrics")
	format := flag.String("format", "contract", "contract: the driver's result line; full: every metric, for a result set")
	spans := flag.String("spans", "", "traced run: write the recorded spans to this file, one JSON object per line")
	runs := flag.Int("runs", 1, "-workload all: runs of each workload")
	compare := flag.Bool("compare", false, "compare two result sets: -compare <setA> <setB>")
	spec := flag.String("spec", "BENCHMARK.json", "-compare: the benchmark description holding the bounds")
	flag.Parse()

	var err error
	code := 0
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result sets, got %d arguments", flag.NArg())
			break
		}
		code, err = compareSets(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
	case *workload == "all":
		code, err = runAll(*seed, *seconds, *runs)
	default:
		code, err = runOne(*workload, *seed, *seconds, *trace != 0, *format, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return code
}

// runOne runs one workload in this process and prints its result line.
func runOne(workload string, seed int64, seconds float64, trace bool, format, spans string) (int, error) {
	if seconds <= 0 {
		return 0, fmt.Errorf("-seconds %v: must be positive", seconds)
	}
	r, err := runWorkload(workload, seed, seconds, trace, spans, setups)
	if err != nil {
		return 0, err
	}
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "benchmark: incorrect:", p)
	}
	var line any
	if format == "full" {
		line = fullLine{result: *r, EndToEnd: endToEndJSON(r.vals), PerLayer: perLayerJSON(r.vals)}
	} else if line, err = contract(r); err != nil {
		return 0, err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(out))
	if !r.Correct {
		return 1, nil
	}
	return 0, nil
}

// runAll produces a result set: every workload, untraced for the end-to-end
// metrics and traced for the per-layer ones, each run in a process of its
// own so that set-up time and peak memory are one workload's.
func runAll(seed int64, seconds float64, runs int) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	set := resultSet{Env: environment(), Seed: seed, Seconds: seconds}
	code := 0
	for i := 0; i < runs; i++ {
		for _, w := range workloadNames {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-format", "full")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				// Exit code 1 is an incorrect run, which still prints its result.
				var exit *exec.ExitError
				if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
					return 0, fmt.Errorf("%s trace %d: %w", w, trace, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var line fullLine
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					return 0, fmt.Errorf("%s trace %d: result line: %w", w, trace, err)
				}
				if !line.Correct {
					code = 1
				}
				fmt.Fprintf(os.Stderr, "benchmark: run %d/%d %s trace %d: correct=%v failed=%d/%d\n",
					i+1, runs, w, trace, line.Correct, line.Failed, line.Attempted)
				set.Runs = append(set.Runs, line)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return code, enc.Encode(set)
}
