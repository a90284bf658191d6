// Command pran-bench regenerates the PRAN evaluation: every live experiment
// in experiments.Registry (indexed in DESIGN.md §4) as printable tables.
//
// Usage:
//
//	pran-bench                # run everything, full sweeps
//	pran-bench -quick         # reduced sweeps (~seconds)
//	pran-bench -run E4        # one experiment
//	pran-bench -list          # list experiment IDs
//	pran-bench -json outdir   # additionally write BENCH_<id>.json per result
//	pran-bench -seed 7        # shift every experiment's workload seeds (1 = committed baselines)
//	pran-bench -telemetry     # dump the process telemetry snapshot after the run
//	pran-bench -cpuprofile cpu.out -run E1    # profile one experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"pran/internal/experiments"
	"pran/internal/telemetry"
)

func main() {
	// Exit status is decided inside run so its defers (profile writers)
	// execute — os.Exit here would skip them.
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "reduced sweeps for a fast pass")
	runID := flag.String("run", "", "run a single experiment by ID (see -list)")
	seed := flag.Int64("seed", 1, "base workload seed; 1 reproduces the committed baselines, reports record derived seeds for replay")
	dumpTelemetry := flag.Bool("telemetry", false, "print the process-default telemetry snapshot after the run")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonDir := flag.String("json", "", "directory to write per-experiment BENCH_<id>.json files (empty disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	flag.Parse()
	experiments.SetBaseSeed(*seed)

	if *list {
		for _, e := range experiments.Registry {
			fmt.Println(e.ID)
		}
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	failed := false
	matched := false
	for _, e := range experiments.Registry {
		if *runID != "" && !strings.EqualFold(*runID, e.ID) {
			continue
		}
		matched = true
		res, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Println(res.String())
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				failed = true
			}
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (see -list)\n", *runID)
		return 2
	}
	if *dumpTelemetry {
		// Experiment pools that don't pass an explicit registry record into
		// the process default; this is the run's accumulated footprint.
		fmt.Printf("== process telemetry snapshot ==\n%s", telemetry.Default().Snapshot())
	}
	if failed {
		return 1
	}
	return 0
}

// writeJSON persists one result as BENCH_<id>.json in dir, creating the
// directory if needed — the machine-readable perf trajectory across PRs.
func writeJSON(dir string, res experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(filepath.Join(dir, "BENCH_"+res.ID+".json"), data, 0o644)
}
