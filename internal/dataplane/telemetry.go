package dataplane

import (
	"fmt"

	"pran/internal/frame"
	"pran/internal/telemetry"
)

// Telemetry metric names exported by the pool. Counters shard per worker
// (shard i == worker i; the submit side records on shard Workers), so the
// snapshot's per-shard breakdown doubles as the per-worker view.
const (
	// MetricTasksSubmitted counts tasks accepted by Submit.
	MetricTasksSubmitted = "pool.tasks_submitted"
	// MetricTasksCompleted counts tasks processed to completion (including
	// CRC failures — the decode ran; the payload was bad).
	MetricTasksCompleted = "pool.tasks_completed"
	// MetricTasksAbandoned counts tasks dropped unprocessed past deadline.
	MetricTasksAbandoned = "pool.tasks_abandoned"
	// MetricCRCFailures counts completed tasks whose transport CRC failed.
	MetricCRCFailures = "pool.crc_failures"
	// MetricDeadlineMisses counts tasks finishing (or abandoned) after
	// their deadline.
	MetricDeadlineMisses = "pool.deadline_misses"
	// MetricHARQRetransmits counts ingested allocations with RV != 0, i.e.
	// HARQ retransmissions entering the pool.
	MetricHARQRetransmits = "pool.harq_retransmits"
	// MetricWorkerBusyNanos accumulates per-worker processing time in
	// nanoseconds; shard i over wall time is worker i's utilization.
	MetricWorkerBusyNanos = "pool.worker_busy_ns"
	// MetricQueueDepth gauges the number of tasks waiting in the queue.
	MetricQueueDepth = "pool.queue_depth"
	// MetricLatency is the enqueue-to-finish latency histogram (seconds).
	MetricLatency = "pool.latency_s"
	// MetricProcTime is the pure processing-time histogram (seconds).
	MetricProcTime = "pool.proc_time_s"
	// MetricStageFrontEnd is the decode front-end stage histogram (seconds):
	// the fused demodulation + descrambling + de-rate-matching pass.
	MetricStageFrontEnd = "pool.stage_front_end_s"
	// MetricStageTurbo is the turbo-decode stage histogram (seconds).
	MetricStageTurbo = "pool.stage_turbo_s"
	// MetricStageCRC is the desegment+CRC stage histogram (seconds).
	MetricStageCRC = "pool.stage_crc_s"
	// MetricBatchWidth is the lockstep lane-fill histogram: one observation
	// per span a worker's turbo decoder ran, valued at the number of code
	// blocks it decoded together (1 = a scalar decode). A transport block of
	// C code blocks decodes as ⌊C/width⌋ full spans and one ragged span of
	// the remainder, so single-block transport blocks read 1.
	MetricBatchWidth = "dataplane.batch_width"
	// MetricBatchFlushFull counts spans that filled the decoder's lockstep
	// width.
	MetricBatchFlushFull = "dataplane.batch_flush_full"
	// MetricBatchFlushRagged counts spans narrower than the decoder's
	// lockstep width — lanes left empty because the transport block had no
	// more code blocks to fill them with.
	MetricBatchFlushRagged = "dataplane.batch_flush_ragged"
	// MetricDegradeLevel gauges the pool's degradation-ladder level
	// (0 = full service; see cluster.DegradationLevel).
	MetricDegradeLevel = "dataplane.degradation_level"
	// MetricDegradeRaises counts the headroom loop's level raises.
	MetricDegradeRaises = "dataplane.degrade_raises"
	// MetricDegradeLowers counts the headroom loop's level lowers.
	MetricDegradeLowers = "dataplane.degrade_lowers"
)

// batchWidthMax is the batch-width histogram's upper bound; widths are
// small integers, so a coarse log-scale range keeps the buckets dense.
const batchWidthMax = 64

// CellMetricTasks returns the per-cell ingest counter name.
func CellMetricTasks(cell frame.CellID) string {
	return fmt.Sprintf("cell.%d.tasks", cell)
}

// CellMetricHARQRetransmits returns the per-cell retransmission counter name.
func CellMetricHARQRetransmits(cell frame.CellID) string {
	return fmt.Sprintf("cell.%d.harq_retransmits", cell)
}

// poolTelemetry carries the pool's pre-resolved metric handles. Handles are
// bound once in NewPool so the record paths (Submit, worker execute/finish)
// never touch the registry's maps or mutex — recording is a handful of
// atomic RMWs and allocates nothing.
type poolTelemetry struct {
	reg *telemetry.Registry
	// driverShard is the shard index for records made off the worker
	// goroutines (Submit, cell ingest): one past the last worker ID.
	driverShard int

	submitted  *telemetry.Counter
	completed  *telemetry.Counter
	abandoned  *telemetry.Counter
	crcFail    *telemetry.Counter
	misses     *telemetry.Counter
	harqRetx   *telemetry.Counter
	busyNanos  *telemetry.Counter
	queueDepth *telemetry.Gauge

	latency    *telemetry.Histogram
	procTime   *telemetry.Histogram
	frontEnd   *telemetry.Histogram
	turbo      *telemetry.Histogram
	crc        *telemetry.Histogram
	batchWidth *telemetry.Histogram

	batchFull   *telemetry.Counter
	batchRagged *telemetry.Counter
}

// newPoolTelemetry resolves the pool's metric handles against reg.
func newPoolTelemetry(reg *telemetry.Registry, workers int) *poolTelemetry {
	return &poolTelemetry{
		reg:         reg,
		driverShard: workers,
		submitted:   reg.Counter(MetricTasksSubmitted),
		completed:   reg.Counter(MetricTasksCompleted),
		abandoned:   reg.Counter(MetricTasksAbandoned),
		crcFail:     reg.Counter(MetricCRCFailures),
		misses:      reg.Counter(MetricDeadlineMisses),
		harqRetx:    reg.Counter(MetricHARQRetransmits),
		busyNanos:   reg.Counter(MetricWorkerBusyNanos),
		queueDepth:  reg.Gauge(MetricQueueDepth),
		latency:     reg.LatencyHistogram(MetricLatency),
		procTime:    reg.LatencyHistogram(MetricProcTime),
		frontEnd:    reg.LatencyHistogram(MetricStageFrontEnd),
		turbo:       reg.LatencyHistogram(MetricStageTurbo),
		crc:         reg.LatencyHistogram(MetricStageCRC),
		batchWidth:  reg.Histogram(MetricBatchWidth, 1, batchWidthMax, 32),
		batchFull:   reg.Counter(MetricBatchFlushFull),
		batchRagged: reg.Counter(MetricBatchFlushRagged),
	}
}

// cellTelemetry carries one cell processor's pre-resolved handles.
type cellTelemetry struct {
	tasks    *telemetry.Counter
	harqRetx *telemetry.Counter
	shard    int
}

// newCellTelemetry resolves the per-cell ingest counters. The ingest path
// runs on the driver goroutine, so records use the pool's driver shard.
func newCellTelemetry(pt *poolTelemetry, cell frame.CellID) *cellTelemetry {
	return &cellTelemetry{
		tasks:    pt.reg.Counter(CellMetricTasks(cell)),
		harqRetx: pt.reg.Counter(CellMetricHARQRetransmits(cell)),
		shard:    pt.driverShard,
	}
}
