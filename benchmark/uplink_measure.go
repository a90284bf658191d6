package main

import (
	"fmt"
	"runtime"
	"time"

	"pran/internal/cluster"
	"pran/internal/dataplane"
	"pran/internal/telemetry"
)

// window is the outcome of one timed section of any workload.
type window struct {
	vals              values
	attempted, failed int64
	// failedShare counts every transport block not delivered on time with
	// the right payload, the expected channel loss of lossy cells included.
	failedShare float64
	// primary is the end-to-end metric the workload is about; the traced and
	// untraced halves of a traced run are compared on it.
	primary  string
	problems []string
}

func (e *ulEngine) warmup() error {
	_, err := e.drive(0)
	return err
}

// counterDelta reads a counter from a windowed snapshot; ok is false when
// the program does not export it.
func counterDelta(d telemetry.Snapshot, name string) (float64, bool) {
	for _, c := range d.Counters {
		if c.Name == name {
			return float64(c.Value), true
		}
	}
	return 0, false
}

// histDelta returns a histogram's windowed sum and count.
func histDelta(d telemetry.Snapshot, name string) (sum, count float64, ok bool) {
	h, ok := d.Histogram(name)
	return h.State.Sum, float64(h.State.Count), ok
}

func (e *ulEngine) measure(d time.Duration, trace bool) (*window, error) {
	e.mu.Lock()
	e.tasks = make([]taskRec, 0, 1<<16)
	e.rounds = make([]ulRound, 0, 1<<16)
	e.mu.Unlock()
	var fft0, est0 time.Duration
	for _, c := range e.cells {
		fft0 += c.proc.FFTTime
		est0 += c.proc.EstimateTime
	}
	stats0 := e.pool.Stats()
	var tel0 telemetry.Snapshot
	if reg := e.pool.Telemetry(); reg != nil {
		tel0 = reg.Snapshot()
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	if trace {
		e.tr.start(1 << 18)
	}
	e.recording.Store(true)
	w, err := e.drive(d)
	e.recording.Store(false)
	e.tr.stop()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	stats1 := e.pool.Stats()

	out := &window{vals: values{}, primary: "rt_slowdown"}
	v := out.vals
	ncells := float64(len(e.cells))
	wallS := w.wall.Seconds()

	// Per-task records. The yardstick times are kept only where the load
	// generator took them: in the closed loops.
	var lat, waits, execs, taskYard, roundYard []float64
	if e.wl.period == 0 {
		for _, r := range e.tasks {
			taskYard = append(taskYard, ms(r.yard))
		}
		for _, r := range e.rounds {
			roundYard = append(roundYard, ms(r.yard))
		}
		v.set("bench.host_speed", hostSpeed(roundYard))
	}
	var exec time.Duration
	var bitIters, goodBits float64
	var n [4]float64       // tasks by kind
	var good [4]float64    // delivered, by kind
	var decoded [4]float64 // delivered or late, by kind
	var crc float64        // CRC failures
	mismatches := 0
	for _, r := range e.tasks {
		lat = append(lat, ms(r.latency))
		waits = append(waits, ms(r.wait))
		execs = append(execs, ms(r.exec))
		exec += r.exec
		bitIters += float64(r.bitIters)
		n[r.kind]++
		if r.outcome.decoded() {
			decoded[r.kind]++
		}
		switch r.outcome {
		case delivered:
			good[r.kind]++
			goodBits += float64(r.bits)
		case crcFailed:
			crc++
		case mismatch:
			mismatches++
		}
		// A failed operation: a block whose payload did not come out, except
		// the expected first-transmission outcomes (a lossy cell's CRC failure,
		// and any first attempt the HARQ cell will retransmit). A block that
		// came out after its deadline is not one: whether it did is decided by
		// the host's stalls, not by the seed, so two runs of the same code
		// would disagree on the count. Lateness is what task_latency_*
		// measures, and it counts in pool.deadline_misses and failed_share.
		switch {
		case r.outcome.decoded(), r.kind == kindFirst, r.kind == kindLossy && r.outcome == crcFailed:
		default:
			out.failed++
		}
	}
	tasks := float64(len(e.tasks))
	resolved := n[kindPlain] + n[kindLossy] + decoded[kindFirst] + n[kindRetx]
	out.attempted = int64(resolved)
	out.failedShare = ratio(resolved-good[kindPlain]-good[kindLossy]-good[kindFirst]-good[kindRetx], resolved)
	if mismatches > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d transport blocks passed CRC with a payload that was not sent", mismatches))
	}
	if sub, fin := stats1.Submitted-stats0.Submitted, stats1.Completed+stats1.Abandoned-stats0.Completed-stats0.Abandoned; sub != fin || sub != uint64(len(e.tasks)) {
		out.problems = append(out.problems, fmt.Sprintf("%d tasks submitted, %d reached a terminal state, %d reported done", sub, fin, len(e.tasks)))
	}

	// End to end.
	busy := w.ingest + exec
	if e.wl.period > 0 {
		// Open loop: the wall clock is the pacing, so the slowdown is read
		// from the compute one TTI costs, spread over the pool's workers.
		out.primary = "task_latency_p50_ms"
		perTTI := make([]float64, len(w.ingestByTTI))
		for k, d := range w.ingestByTTI {
			perTTI[k] = ms(d)
		}
		for _, r := range e.tasks {
			perTTI[r.tti] += ms(r.exec)
		}
		v.set("rt_slowdown", steady(perTTI, nil, mean)/float64(e.wl.workers))
		// Latency is timed from the due time, so a late TTI is still
		// measured honestly; what would spoil the run is a generator that
		// cannot keep its schedule, which shows in the typical TTI. The odd
		// TTI on which the host stalled the whole process shows in the p99.
		v.set("bench.generator_lag_p99_ms", quantile(w.lag, 0.99))
		if lag := quantile(w.lag, 0.5); lag > 0.1*ms(e.wl.period) {
			out.problems = append(out.problems, fmt.Sprintf("invalid run: the generator's median lag %.2f ms exceeds 10%% of the %v period", lag, e.wl.period))
		}
	} else {
		// One P and one cell-subframe in flight, so that cell-subframes end
		// in the order they began: a cell-subframe's turn, less the yardstick
		// run it began with, is what it cost.
		if len(e.rounds) != len(w.starts) {
			return nil, fmt.Errorf("%d cell-subframes released, %d finished", len(w.starts), len(e.rounds))
		}
		cost := make([]float64, len(w.starts))
		for i, t := range w.starts {
			next := w.end
			if i+1 < len(w.starts) {
				next = w.starts[i+1]
			}
			cost[i] = ms(next.Sub(t) - e.rounds[i].yard)
		}
		v.set("rt_slowdown", steady(cost, roundYard, mean)*ncells)
	}
	v.set("task_latency_p50_ms", steadyQuantile(lat, taskYard, 0.50))
	v.set("task_latency_p99_ms", steadyQuantile(lat, taskYard, 0.99))
	rounds := make([]float64, len(e.rounds))
	for i, r := range e.rounds {
		rounds[i] = ms(r.latency)
	}
	v.set("control_round_p50_ms", steadyQuantile(rounds, roundYard, 0.50))
	v.set("control_round_p99_ms", steadyQuantile(rounds, roundYard, 0.99))

	// Layers.
	var fft, est time.Duration
	for _, c := range e.cells {
		fft += c.proc.FFTTime
		est += c.proc.EstimateTime
	}
	fft, est = fft-fft0, est-est0
	sf := float64(w.subframes)
	v.set("traffic.subframe_gen_us", us(e.genPerSubframe))
	v.set("ingest.per_subframe_us", ratio(us(w.ingest), sf))
	v.set("ingest.fft_per_subframe_us", ratio(us(fft), sf))
	if est > 0 {
		v.set("ingest.estimate_per_subframe_us", ratio(us(est), sf))
	}
	v.set("ingest.extract_submit_per_task_us", ratio(us(w.ingest-fft-est), tasks))
	v.set("ingest.busy_share", ratio(float64(w.ingest), float64(busy)))

	v.set("pool.tasks_submitted", float64(stats1.Submitted-stats0.Submitted))
	v.set("pool.tasks_completed", float64(stats1.Completed-stats0.Completed))
	v.set("pool.tasks_abandoned", float64(stats1.Abandoned-stats0.Abandoned))
	v.set("pool.deadline_misses", float64(stats1.DeadlineMisses-stats0.DeadlineMisses))
	v.set("pool.queue_wait_p50_ms", quantile(waits, 0.50))
	v.set("pool.queue_wait_p99_ms", quantile(waits, 0.99))
	v.set("pool.exec_p50_ms", quantile(execs, 0.50))
	v.set("pool.exec_p99_ms", quantile(execs, 0.99))
	v.set("pool.queue_depth_max", float64(w.queueDepthMax))
	v.set("phy.crc_fail_share", ratio(crc, tasks))

	if reg := e.pool.Telemetry(); reg != nil {
		tel := telemetry.Delta(tel0, reg.Snapshot())
		if busyNs, ok := counterDelta(tel, dataplane.MetricWorkerBusyNanos); ok {
			v.set("pool.worker_busy_share", ratio(busyNs, float64(w.wall.Nanoseconds())*float64(e.wl.workers)))
		}
		if sum, count, ok := histDelta(tel, dataplane.MetricBatchWidth); ok && count > 0 {
			v.set("pool.batch_width_mean", sum/count)
		}
		full, _ := counterDelta(tel, dataplane.MetricBatchFlushFull)
		ragged, _ := counterDelta(tel, dataplane.MetricBatchFlushRagged)
		v.set("pool.batch_ragged_share", ratio(ragged, full+ragged))
		if raises, ok := counterDelta(tel, dataplane.MetricDegradeRaises); ok {
			v.set("pool.degrade_raises", raises)
		}
		front, _, okF := histDelta(tel, dataplane.MetricStageFrontEnd)
		turbo, _, okT := histDelta(tel, dataplane.MetricStageTurbo)
		crcS, _, okC := histDelta(tel, dataplane.MetricStageCRC)
		if okF {
			v.set("phy.front_end_per_task_us", ratio(front*1e6, tasks))
			v.set("phy.front_end_share", ratio(front, busy.Seconds()))
		}
		if okT {
			v.set("phy.turbo_per_task_us", ratio(turbo*1e6, tasks))
			v.set("phy.turbo_share", ratio(turbo, busy.Seconds()))
			v.set("phy.turbo_ns_per_bit_iter", ratio(turbo*1e9, bitIters))
		}
		if okC {
			v.set("phy.crc_per_task_us", ratio(crcS*1e6, tasks))
		}
		if okF && okT && okC {
			v.set("pool.dispatch_overhead_per_task_us", ratio((exec.Seconds()-front-turbo-crcS)*1e6, tasks))
		}
	}

	// The latest replay of every slot: a count that repeats exactly per seed
	// however many passes the window held.
	var iters, slotTasks int64
	for _, c := range e.cells {
		for _, s := range c.slots {
			iters += s.iters.Load()
			slotTasks += s.tasks.Load()
		}
	}
	v.set("phy.turbo_iters_per_task", ratio(float64(iters), float64(slotTasks)))

	if n[kindFirst] > 0 {
		v.set("harq.first_tx_fail_share", 1-decoded[kindFirst]/n[kindFirst])
		v.set("harq.retx_sent", n[kindRetx])
		v.set("harq.recovered_share", ratio(decoded[kindRetx], n[kindRetx]))
	}
	if err := e.harqMigration(out); err != nil {
		return nil, err
	}

	v.set("runtime.allocs_per_task", ratio(float64(mem1.Mallocs-mem0.Mallocs), tasks))
	v.set("runtime.gc_cycles", float64(mem1.NumGC-mem0.NumGC))
	v.set("runtime.gc_pause_total_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)

	v.set("bench.cell_subframes_per_s", ratio(sf, wallS))
	v.set("bench.goodput_mbps", ratio(goodBits/1e6, wallS))
	v.set("bench.failed_share", out.failedShare)
	if trace {
		v.set("bench.self_time_share", e.tr.selfTimeShare())
		if err := e.costModel(v, busy); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// harqMigration times the HARQ state's snapshot and restore, the payload of
// a cell migration, and checks that what is restored is what was saved.
func (e *ulEngine) harqMigration(out *window) error {
	var bytesTotal int
	var snap, restore time.Duration
	for _, c := range e.cells {
		h := c.proc.HARQ()
		bytesTotal += h.StateBytes()
		t0 := time.Now()
		blob, err := h.MarshalBinary()
		if err != nil {
			return fmt.Errorf("snapshot HARQ state of cell %d: %w", c.plan.cfg.ID, err)
		}
		t1 := time.Now()
		back := dataplane.NewHARQManager()
		if err := back.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("restore HARQ state of cell %d: %w", c.plan.cfg.ID, err)
		}
		snap += t1.Sub(t0)
		restore += time.Since(t1)
		if back.StateBytes() != h.StateBytes() || back.Processes() != h.Processes() {
			out.problems = append(out.problems, fmt.Sprintf("cell %d: restored HARQ state has %d bytes in %d processes, snapshotted %d in %d",
				c.plan.cfg.ID, back.StateBytes(), back.Processes(), h.StateBytes(), h.Processes()))
		}
	}
	out.vals.set("harq.state_bytes", float64(bytesTotal))
	out.vals.set("harq.snapshot_us", us(snap))
	out.vals.set("harq.restore_us", us(restore))
	return nil
}

// costModel compares the compute the calibrated cost model predicts for the
// subframes of the ring with the compute the run spent on them: the drift
// gauge between the controller's planning model and this host.
func (e *ulEngine) costModel(v values, busy time.Duration) error {
	model, err := cluster.Calibrate()
	if err != nil {
		return fmt.Errorf("calibrate cost model: %w", err)
	}
	var predicted time.Duration
	calls := 0
	t0 := time.Now()
	for _, c := range e.cells {
		for _, s := range c.slots {
			predicted += model.SubframeCost(s.live, c.plan.cfg.Bandwidth, c.plan.cfg.Antennas)
			calls++
		}
	}
	v.set("cluster.subframe_cost_call_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(calls)))
	// One pass of the ring against the window's busy time per pass.
	var subframes int
	e.mu.Lock()
	subframes = len(e.rounds)
	e.mu.Unlock()
	passes := float64(subframes) / float64(calls)
	v.set("cluster.model_residual", ratio(float64(predicted)*passes, float64(busy)))
	return nil
}
