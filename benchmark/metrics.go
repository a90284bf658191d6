package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// e2eDef declares one end-to-end metric. Bound is the share of the parent's
// median by which the metric may worsen before a change counts as a
// regression; the timing bounds are as wide as they are because ten runs of
// the unchanged program spread by up to 0.14 of their median on the noisy
// virtual machines this runs on (README.md has the numbers). BENCHMARK.json
// repeats this table; bench_test.go pins the two against each other.
type e2eDef struct {
	Name, Unit, Better string
	Bound              float64
}

// layerDef declares one per-layer metric (no bound: they locate a change,
// they do not gate it).
type layerDef struct{ Name, Unit, Better string }

var endToEndDefs = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"rt_slowdown", "ms/ms", "lower", 0.25},
	{"task_latency_p50_ms", "ms", "lower", 0.25},
	{"task_latency_p99_ms", "ms", "lower", 0.25},
	{"control_round_p50_ms", "ms", "lower", 0.25},
	{"control_round_p99_ms", "ms", "lower", 0.25},
}

var perLayerDefs = []layerDef{
	{"traffic.subframe_gen_us", "us", "lower"},

	{"ingest.per_subframe_us", "us", "lower"},
	{"ingest.fft_per_subframe_us", "us", "lower"},
	{"ingest.estimate_per_subframe_us", "us", "lower"},
	{"ingest.extract_submit_per_task_us", "us", "lower"},
	{"ingest.busy_share", "share", "lower"},

	{"pool.tasks_submitted", "count", "higher"},
	{"pool.tasks_completed", "count", "higher"},
	{"pool.tasks_abandoned", "count", "lower"},
	{"pool.deadline_misses", "count", "lower"},
	{"pool.queue_wait_p50_ms", "ms", "lower"},
	{"pool.queue_wait_p99_ms", "ms", "lower"},
	{"pool.exec_p50_ms", "ms", "lower"},
	{"pool.exec_p99_ms", "ms", "lower"},
	{"pool.worker_busy_share", "share", "lower"},
	{"pool.queue_depth_max", "count", "lower"},
	{"pool.batch_width_mean", "count", "higher"},
	{"pool.batch_ragged_share", "share", "lower"},
	{"pool.degrade_raises", "count", "lower"},
	{"pool.dispatch_overhead_per_task_us", "us", "lower"},

	{"phy.front_end_per_task_us", "us", "lower"},
	{"phy.turbo_per_task_us", "us", "lower"},
	{"phy.crc_per_task_us", "us", "lower"},
	{"phy.turbo_share", "share", "lower"},
	{"phy.front_end_share", "share", "lower"},
	{"phy.turbo_iters_per_task", "count", "lower"},
	{"phy.turbo_ns_per_bit_iter", "ns", "lower"},
	{"phy.crc_fail_share", "share", "lower"},

	{"harq.first_tx_fail_share", "share", "lower"},
	{"harq.retx_sent", "count", "lower"},
	{"harq.recovered_share", "share", "higher"},
	{"harq.state_bytes", "bytes", "lower"},
	{"harq.snapshot_us", "us", "lower"},
	{"harq.restore_us", "us", "lower"},

	{"cluster.subframe_cost_call_ns", "ns", "lower"},
	{"cluster.model_residual", "ratio", "higher"},

	{"controller.observe_per_cell_ns", "ns", "lower"},
	{"controller.step_p50_ms", "ms", "lower"},
	{"controller.step_p99_ms", "ms", "lower"},
	{"controller.migrations_per_round", "count", "lower"},
	{"controller.full_place_share", "share", "lower"},
	{"controller.dropped_cells", "count", "lower"},

	{"ctrlproto.push_ack_rtt_p50_us", "us", "lower"},
	{"ctrlproto.push_ack_rtt_p99_us", "us", "lower"},
	{"ctrlproto.msgs_per_round", "count", "lower"},
	{"ctrlproto.bytes_per_round", "bytes", "lower"},
	{"ctrlproto.stream_coalesced", "count", "lower"},
	{"ctrlproto.stream_dropped", "count", "lower"},

	{"telemetry.snapshot_us", "us", "lower"},
	{"telemetry.encode_us", "us", "lower"},
	{"telemetry.decode_merge_us", "us", "lower"},
	{"telemetry.scrape_rtt_ms", "ms", "lower"},

	{"runtime.allocs_per_task", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},

	{"bench.generator_lag_p99_ms", "ms", "lower"},
	{"bench.self_time_share", "share", "lower"},
	{"bench.trace_overhead_share", "share", "lower"},
	{"bench.cell_subframes_per_s", "1/s", "higher"},
	{"bench.goodput_mbps", "Mbit/s", "higher"},
	{"bench.failed_share", "share", "lower"},
	{"bench.host_speed", "ratio", "higher"},
}

// values holds measured metrics by name. A name that is absent was not
// measured on this workload (or the program does not export the telemetry
// behind it); it prints as null in a result set and as 0 on the driver line.
type values map[string]float64

// set stores v unless it is not a number (an empty denominator).
func (v values) set(name string, x float64) {
	if !math.IsNaN(x) && !math.IsInf(x, 0) {
		v[name] = x
	}
}

// ratio is a/b, NaN when b is 0 so that values.set drops it.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile returns the nearest-rank q-quantile of xs, which it sorts in
// place; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// sections is how many consecutive parts a timed section's samples are cut
// into for the end-to-end metrics.
const sections = 5

// steady cuts xs, which is in completion order, into consecutive parts,
// applies f to each and returns the median of the results. A burst of noise
// from the host's other tenants then moves one part and not the metric. With
// fewer than eight samples a part, f sees all of xs at once.
//
// yard, when non-nil, holds for every sample the yardstick time taken next to
// it; each part's result is then scaled to the nominal host speed (see
// yardstick.go).
func steady(xs, yard []float64, f func([]float64) float64) float64 {
	n := sections
	if len(xs) < 8*sections {
		n = 1
	}
	parts := make([]float64, n)
	for i := range parts {
		lo, hi := i*len(xs)/n, (i+1)*len(xs)/n
		parts[i] = f(xs[lo:hi])
		if yard != nil {
			parts[i] *= hostSpeed(yard[lo:hi])
		}
	}
	return median(parts)
}

// hostSpeed is the factor that scales times measured next to the given
// yardstick times (in ms) to the nominal host: below 1 on a slow host.
func hostSpeed(yard []float64) float64 { return ms(yardNominal) / mean(yard) }

func steadyQuantile(xs, yard []float64, q float64) float64 {
	return steady(xs, yard, func(part []float64) float64 { return quantile(part, q) })
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
