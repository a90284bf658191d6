package dataplane

import (
	"bytes"
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// TestPoolTelemetryEndToEnd drives real subframes through the pool with an
// explicit registry and checks that the runtime metrics agree with the
// pool's own Stats accounting.
func TestPoolTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.New(4)
	pool := testPool(t, Config{Workers: 2, Policy: EDF, DeadlineScale: 1000, Telemetry: reg})
	if pool.Telemetry() != reg {
		t.Fatal("pool did not adopt the explicit registry")
	}
	work := frame.SubframeWork{
		Cell: 1, TTI: 7,
		Allocations: []frame.Allocation{
			{RNTI: 100, FirstPRB: 0, NumPRB: 3, MCS: 8, SNRdB: phy.MCS(8).OperatingSNR() + 4},
			{RNTI: 101, FirstPRB: 3, NumPRB: 3, MCS: 12, SNRdB: phy.MCS(12).OperatingSNR() + 4},
		},
	}
	done := endToEnd(t, pool, work)
	if len(done) != 2 {
		t.Fatalf("%d tasks done", len(done))
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricTasksSubmitted); got != 2 {
		t.Fatalf("submitted %d", got)
	}
	if got := snap.Counter(MetricTasksCompleted); got != 2 {
		t.Fatalf("completed %d", got)
	}
	if snap.Counter(MetricTasksAbandoned) != 0 || snap.Counter(MetricCRCFailures) != 0 {
		t.Fatalf("spurious failures: %s", snap)
	}
	if got := snap.Counter(CellMetricTasks(1)); got != 2 {
		t.Fatalf("per-cell tasks %d", got)
	}
	for _, name := range []string{MetricLatency, MetricProcTime, MetricStageFrontEnd, MetricStageTurbo, MetricStageCRC} {
		hs, ok := snap.Histogram(name)
		if !ok || hs.State.Count != 2 {
			t.Fatalf("histogram %s: ok=%v state=%+v", name, ok, hs.State)
		}
	}
	// Stage decompositions recorded real time: turbo dominates the decode.
	turbo, _ := snap.Histogram(MetricStageTurbo)
	if turbo.State.Sum <= 0 {
		t.Fatal("turbo stage recorded no time")
	}
	if got := snap.Counter(MetricWorkerBusyNanos); got == 0 {
		t.Fatal("worker busy time not recorded")
	}
	if depth, ok := snap.Gauge(MetricQueueDepth); !ok || depth != 0 {
		t.Fatalf("queue depth %d after drain", depth)
	}
}

// TestPoolTelemetryHARQAndFailures checks the retransmission and CRC-failure
// counters through the real HARQ chase-combining path.
func TestPoolTelemetryHARQAndFailures(t *testing.T) {
	reg := telemetry.New(2)
	pool := testPool(t, Config{Workers: 1, Policy: EDF, DeadlineScale: 1000, Telemetry: reg})
	cfg := testCellConfig()
	rrh, err := NewRRHEmulator(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCellProcessor(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	alloc := frame.Allocation{
		RNTI: 50, FirstPRB: 0, NumPRB: 6, MCS: 14, HARQProcess: 2,
		SNRdB: phy.MCS(14).OperatingSNR() - 2.5,
	}
	work := frame.SubframeWork{Cell: 1, TTI: 10, Allocations: []frame.Allocation{alloc}}
	payloads, err := rrh.RandomPayloads(work)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(w frame.SubframeWork) *Task {
		samples, err := rrh.Emit(w, payloads)
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan *Task, 1)
		if err := cp.IngestSubframe(samples, w, func(tk *Task) { ch <- tk }); err != nil {
			t.Fatal(err)
		}
		return <-ch
	}
	first := runOnce(work)
	awaitHARQRelease(cp, alloc)
	work2 := work
	work2.TTI = 18
	work2.Allocations = []frame.Allocation{alloc}
	work2.Allocations[0].RV = 2
	second := runOnce(work2)
	if second.Err != nil {
		t.Fatalf("combined retransmission failed (first err=%v): %v", first.Err, second.Err)
	}
	if !bytes.Equal(second.Payload, payloads[0]) {
		t.Fatal("combined decode returned wrong payload")
	}

	snap := reg.Snapshot()
	if got := snap.Counter(MetricHARQRetransmits); got != 1 {
		t.Fatalf("harq retransmits %d", got)
	}
	if got := snap.Counter(CellMetricHARQRetransmits(1)); got != 1 {
		t.Fatalf("per-cell harq retransmits %d", got)
	}
	wantCRC := uint64(0)
	if first.Err != nil {
		wantCRC = 1
	}
	if got := snap.Counter(MetricCRCFailures); got != wantCRC {
		t.Fatalf("crc failures %d, want %d", got, wantCRC)
	}
	if got := snap.Counter(MetricTasksCompleted); got != 2 {
		t.Fatalf("completed %d", got)
	}
}

// TestPoolTelemetryDisabled verifies the opt-out: no registry, no metrics.
func TestPoolTelemetryDisabled(t *testing.T) {
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1000, DisableTelemetry: true})
	if pool.Telemetry() != nil {
		t.Fatal("disabled pool still exposes a registry")
	}
	work := frame.SubframeWork{
		Cell: 1, TTI: 3,
		Allocations: []frame.Allocation{
			{RNTI: 9, FirstPRB: 0, NumPRB: 3, MCS: 5, SNRdB: 30},
		},
	}
	done := endToEnd(t, pool, work)
	if len(done) != 1 || done[0].Err != nil {
		t.Fatalf("decode under disabled telemetry: %+v", done)
	}
}

// TestPoolTelemetryDefaultRegistry verifies default-on behaviour: with no
// explicit registry the pool records into telemetry.Default().
func TestPoolTelemetryDefaultRegistry(t *testing.T) {
	before := telemetry.Default().Snapshot().Counter(MetricTasksSubmitted)
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1000})
	if pool.Telemetry() != telemetry.Default() {
		t.Fatal("pool did not fall back to the default registry")
	}
	work := frame.SubframeWork{
		Cell: 2, TTI: 4,
		Allocations: []frame.Allocation{
			{RNTI: 9, FirstPRB: 0, NumPRB: 3, MCS: 5, SNRdB: 30},
		},
	}
	cfg := testCellConfig()
	cfg.ID = 2
	rrh, err := NewRRHEmulator(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCellProcessor(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := rrh.RandomPayloads(work)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rrh.Emit(work, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.IngestSubframe(samples, work, nil); err != nil {
		t.Fatal(err)
	}
	pool.Drain()
	after := telemetry.Default().Snapshot().Counter(MetricTasksSubmitted)
	if after != before+1 {
		t.Fatalf("default registry submitted: %d -> %d", before, after)
	}
}
