package node

import (
	"sync"
	"testing"
	"time"

	"pran/internal/cluster"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/ranapi"
	"pran/internal/telemetry"
	"pran/internal/traffic"
)

// localAgentConfig is the agent configuration the cell-runtime tests share:
// two workers at a deadline scale generous enough that nothing is abandoned
// when subframes are driven unpaced, recording into a private registry.
func localAgentConfig() AgentConfig {
	return AgentConfig{
		Cores: 2,
		Pool:  dataplane.Config{DeadlineScale: 1000, Policy: dataplane.EDF, Telemetry: telemetry.New(1)},
		Seed:  11,
	}
}

// newLocalAgent builds an agent with no controller connection serving
// nCells 1.4 MHz cells; tests drive its subframes with tick, unpaced.
func newLocalAgent(t *testing.T, nCells int) *AgentNode {
	t.Helper()
	return newLocalAgentCfg(t, localAgentConfig(), nCells)
}

// newLocalAgentCfg is newLocalAgent with an explicit configuration.
func newLocalAgentCfg(t *testing.T, cfg AgentConfig, nCells int) *AgentNode {
	t.Helper()
	a, err := newAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.pool.Close() })
	for _, c := range testCells(nCells) {
		if err := a.assign(c); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// runTicks drives n subframes and waits for their decodes.
func runTicks(a *AgentNode, n int) {
	for i := 0; i < n; i++ {
		a.tick()
	}
	a.pool.Drain()
}

// setProfile replaces cell 0's traffic with one generator of the profile.
func setProfile(t *testing.T, a *AgentNode, p traffic.CellProfile) {
	t.Helper()
	gen, err := traffic.NewGenerator(phy.BW1_4MHz, []traffic.CellProfile{p}, 11, 12)
	if err != nil {
		t.Fatal(err)
	}
	a.cells[0].gen = gen
}

// TestHARQLoopRecoversFailures runs an agent cell whose UEs sit right at
// their MCS operating points, so first transmissions fail regularly and the
// cell runtime's retransmission loop has work to do.
func TestHARQLoopRecoversFailures(t *testing.T) {
	a := newLocalAgent(t, 1)
	// Tight SNR spread pins UEs near the MCSForSNR switch threshold, where
	// the fading jitter pushes a good fraction of TBs below water.
	setProfile(t, a, traffic.CellProfile{
		Class:           traffic.Mixed,
		PeakUtilization: 0.9,
		SNRMeanDB:       8,
		SNRStdDB:        0.5,
		MeanUEsAtPeak:   4,
	})
	runTicks(a, 400)
	// Let straggler retransmissions resolve.
	runTicks(a, 40)

	hs := a.HARQStats()
	if hs.FirstTxFailures == 0 {
		t.Fatal("no first-transmission failures at the operating point; scenario miscalibrated")
	}
	if hs.Retransmissions == 0 {
		t.Fatal("failures occurred but nothing was retransmitted")
	}
	if hs.Recovered == 0 {
		t.Fatal("retransmissions never recovered a transport block")
	}
	// Soft combining must recover the majority of resolved TBs within the
	// RV budget. (The exact ratio wobbles a few percent across runs because
	// worker completion order shifts which subframes see the busy-process
	// filter; the invariant is "combining wins", not a point estimate.)
	resolved := hs.Recovered + hs.Exhausted
	if resolved > 0 && float64(hs.Recovered)/float64(resolved) < 0.5 {
		t.Fatalf("recovery ratio %.2f too low (%+v)", float64(hs.Recovered)/float64(resolved), hs)
	}
	t.Logf("HARQ: %+v", hs)
}

// belowWater pins every fresh allocation to one MCS at a fixed SNR below
// that MCS's operating point, where one redundancy version alone fails its
// CRC and the combination of the first two passes. With silent set it
// schedules nothing, so pending retransmissions resolve without new data.
type belowWater struct {
	mcs      phy.MCS
	offsetDB float64
	silent   bool
}

func (b *belowWater) Name() string                     { return "below-water" }
func (b *belowWater) OnObservation(ranapi.Observation) {}
func (b *belowWater) OnSubframe(w frame.SubframeWork) frame.SubframeWork {
	if b.silent {
		w.Allocations = nil
		return w
	}
	allocs := append([]frame.Allocation(nil), w.Allocations...)
	for i := range allocs {
		allocs[i].MCS = b.mcs
		allocs[i].SNRdB = b.mcs.OperatingSNR() + b.offsetDB
	}
	w.Allocations = allocs
	return w
}

// TestHARQSoftCombiningRecoversEveryTB pins soft combining at the node
// level. Every first transmission is sent 1.5 dB below its MCS's operating
// point, where a redundancy version alone almost never decodes (with the
// combining branch of the data plane's HARQ manager disabled, 1 to 4 of ~285
// failed TBs recover and the rest exhaust), so recoveries come from
// combining the retransmission into the first attempt's LLRs.
// The pool is drained after every subframe: each verdict lands before its
// process's retransmission is due, the data plane's busy-buffer filter
// never fires, and every retransmission combines. Combining then recovers
// every failed TB at its first retransmission and exhausts none.
func TestHARQSoftCombiningRecoversEveryTB(t *testing.T) {
	a := newLocalAgent(t, 1)
	prog := &belowWater{mcs: 14, offsetDB: -1.5}
	if err := a.Programs().Register(prog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		runTicks(a, 1)
	}
	// Quiet subframes let the last retransmissions resolve.
	prog.silent = true
	for i := 0; i < 4*harqRetxInterval; i++ {
		runTicks(a, 1)
	}
	hs := a.HARQStats()
	t.Logf("HARQ: %+v", hs)
	if hs.FirstTxFailures < 100 {
		t.Fatalf("only %d first-transmission failures below the operating point; scenario miscalibrated", hs.FirstTxFailures)
	}
	if hs.Exhausted != 0 || hs.Recovered != hs.FirstTxFailures {
		t.Fatalf("%d of %d failed TBs recovered, %d exhausted: soft combining is broken", hs.Recovered, hs.FirstTxFailures, hs.Exhausted)
	}
	if hs.Retransmissions != hs.Recovered {
		t.Fatalf("%d retransmissions for %d recoveries: a TB needed more than one", hs.Retransmissions, hs.Recovered)
	}
}

// mcsRecorder is a pass-through program that remembers the highest MCS the
// chain ahead of it let through.
type mcsRecorder struct {
	max    phy.MCS
	allocs int
}

func (r *mcsRecorder) Name() string { return "mcs-recorder" }

func (r *mcsRecorder) OnSubframe(w frame.SubframeWork) frame.SubframeWork {
	for _, a := range w.Allocations {
		r.allocs++
		if a.MCS > r.max {
			r.max = a.MCS
		}
	}
	return w
}

func (r *mcsRecorder) OnObservation(ranapi.Observation) {}

// TestAgentDegradationCapsMCS pins the scheduler feedback: the pool's
// degradation level, as the pool's own headroom loop moves it, reaches
// every cell's schedule as an MCS cap from the next subframe on, and clears
// when the pool returns to full service. The workers park in the fault hook
// until the test releases them, so queued decodes pile up and the loop
// climbs the ladder; once released and drained, the loop walks back down.
func TestAgentDegradationCapsMCS(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	cfg := localAgentConfig()
	cfg.Pool.Degrade = dataplane.DegradeConfig{Enable: true, Period: time.Millisecond, DwellPeriods: 1}
	cfg.Pool.FaultHook = func(int) error { <-release; return nil }
	a := newLocalAgentCfg(t, cfg, 1)
	// Registered after the pool's Close, so it runs first.
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	// High SNR: uncapped, the scheduler picks MCS well above 18.
	setProfile(t, a, traffic.CellProfile{
		Class:           traffic.Mixed,
		PeakUtilization: 0.9,
		SNRMeanDB:       25,
		SNRStdDB:        2,
		MeanUEsAtPeak:   4,
	})
	for i := 0; i < 16; i++ {
		a.tick()
	}
	waitFor(t, "the headroom loop to reach "+cluster.DegradeTightCap.String(), 10*time.Second, func() bool {
		return a.pool.Level() >= cluster.DegradeTightCap
	})
	capped := &mcsRecorder{}
	if err := a.Programs().Register(capped); err != nil {
		t.Fatal(err)
	}
	// The workers stay parked, so the queue stays deep and the level at
	// or above tight-cap.
	for i := 0; i < 50; i++ {
		a.tick()
	}
	if capped.allocs == 0 {
		t.Fatal("no allocations scheduled")
	}
	if limit := cluster.DegradeTightCap.MCSCap(); capped.max > limit {
		t.Fatalf("scheduled MCS %d at %v or deeper, cap %d", capped.max, cluster.DegradeTightCap, limit)
	}

	once.Do(func() { close(release) })
	a.pool.Drain()
	waitFor(t, "the headroom loop to return to full service", 10*time.Second, func() bool {
		return a.pool.Level() == cluster.DegradeNone
	})
	a.Programs().Unregister(capped.Name())
	uncapped := &mcsRecorder{}
	if err := a.Programs().Register(uncapped); err != nil {
		t.Fatal(err)
	}
	// Draining after every subframe keeps the queue shallow, so the loop
	// stays at full service.
	for i := 0; i < 50; i++ {
		runTicks(a, 1)
	}
	if uncapped.max <= cluster.DegradeTightCap.MCSCap() {
		t.Fatalf("highest MCS %d at full service; the cap still applies", uncapped.max)
	}
}

// prbThrottle keeps allocations, in scheduling order, while they fit a
// per-subframe PRB cap, and counts the ones it drops. The unpaced harness
// calls it from the test goroutine only.
type prbThrottle struct {
	max, shed int
}

func (p *prbThrottle) Name() string                     { return "prb-throttle" }
func (p *prbThrottle) OnObservation(ranapi.Observation) {}
func (p *prbThrottle) OnSubframe(w frame.SubframeWork) frame.SubframeWork {
	used, kept := 0, []frame.Allocation(nil)
	for _, al := range w.Allocations {
		if used+al.NumPRB > p.max {
			p.shed++
			continue
		}
		used += al.NumPRB
		kept = append(kept, al)
	}
	w.Allocations = kept
	return w
}

// TestAgentRunsProgramChain runs a passive stats program ahead of a PRB
// throttle on an agent cell: the stats program sees every subframe's raw
// schedule, and the throttle sheds the full-load PRBs above its cap.
func TestAgentRunsProgramChain(t *testing.T) {
	a := newLocalAgent(t, 1)
	stats := ranapi.NewStatsProgram()
	if err := a.Programs().Register(stats); err != nil {
		t.Fatal(err)
	}
	throttle := &prbThrottle{max: 2}
	if err := a.Programs().Register(throttle); err != nil {
		t.Fatal(err)
	}
	runTicks(a, 50)
	st, ok := stats.Stats(frame.CellID(0))
	if !ok || st.Subframes != 50 {
		t.Fatalf("stats program saw %+v", st)
	}
	// 1.4 MHz cell → up to 6 PRB demand, so shedding must have occurred.
	if throttle.shed == 0 {
		t.Fatal("throttle never shed under full load")
	}
}

// TestAgentDecodesCorrectly: at the default profiles' SNRs, the vast
// majority of an agent cell's tasks decode (CRC pass).
func TestAgentDecodesCorrectly(t *testing.T) {
	a := newLocalAgent(t, 1)
	runTicks(a, 100)
	st := a.pool.Stats()
	if st.Submitted == 0 {
		t.Fatal("no tasks")
	}
	if failFrac := float64(st.CRCFailures) / float64(st.Submitted); failFrac > 0.35 {
		t.Fatalf("CRC failure fraction %.2f too high (link adaptation broken?)", failFrac)
	}
}

// overlapProgram duplicates a subframe's first allocation on even TTIs, so
// the chain emits work whose allocations overlap.
type overlapProgram struct{}

func (overlapProgram) Name() string { return "overlap" }

func (overlapProgram) OnSubframe(w frame.SubframeWork) frame.SubframeWork {
	if n := len(w.Allocations); w.TTI%2 == 0 && n > 0 {
		w.Allocations = append(w.Allocations[:n:n], w.Allocations[0])
	}
	return w
}

func (overlapProgram) OnObservation(ranapi.Observation) {}

// TestSubframeErrorsCounted: a program's invalid rewrite costs only the
// subframe it broke. The agent counts it in agent.subframe_errors and the
// cell keeps serving the rest.
func TestSubframeErrorsCounted(t *testing.T) {
	a := newLocalAgent(t, 1)
	stats := ranapi.NewStatsProgram()
	for _, p := range []ranapi.Program{overlapProgram{}, stats} {
		if err := a.Programs().Register(p); err != nil {
			t.Fatal(err)
		}
	}
	const n = 40
	runTicks(a, n)
	errs := a.Telemetry().Counter("agent.subframe_errors").Value()
	served, _ := stats.Stats(0)
	if errs == 0 {
		t.Fatal("overlapping allocations were not counted as subframe errors")
	}
	if served.Subframes == 0 || errs+served.Subframes != n {
		t.Fatalf("%d errors + %d served subframes, want %d", errs, served.Subframes, n)
	}
	if a.NumCells() != 1 || a.pool.Stats().Completed == 0 {
		t.Fatal("the cell stopped serving after a bad subframe")
	}
}

// TestCalibrateScaleKeepsCallerTelemetry pins that CalibrateScale's
// throwaway pool records into a registry of its own: the caller's registry,
// which the real agent built from the same config then reports, counts
// none of the warm-up's tasks or compute.
func TestCalibrateScaleKeepsCallerTelemetry(t *testing.T) {
	reg := telemetry.New(4)
	cfg := localAgentConfig()
	cfg.Pool.Telemetry = reg
	scale, err := CalibrateScale(cfg, testCells(2), 20)
	if err != nil {
		t.Fatal(err)
	}
	if scale < 1 {
		t.Fatalf("scale %v", scale)
	}
	snap := reg.Snapshot()
	for _, name := range []string{dataplane.MetricTasksSubmitted, dataplane.MetricTasksCompleted, dataplane.MetricWorkerBusyNanos} {
		if n := snap.Counter(name); n != 0 {
			t.Fatalf("calibration leaked into the caller's registry: %s = %d", name, n)
		}
	}
	// The same configuration does submit work when it serves for real.
	a, err := newAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.pool.Close()
	for _, c := range testCells(2) {
		if err := a.assign(c); err != nil {
			t.Fatal(err)
		}
	}
	runTicks(a, 20)
	if reg.Snapshot().Counter(dataplane.MetricTasksSubmitted) == 0 {
		t.Fatal("the agent submitted no task into its registry")
	}
}

// TestReassignKeepsRunningCell: an assignment of a cell the agent already
// serves as configured (a restarted controller re-placing cells before the
// agent's ownership report lands) keeps the cell's runtime, so its HARQ
// state survives, including state the controller queued ahead of the
// assignment. A changed configuration still rebuilds the cell.
func TestReassignKeepsRunningCell(t *testing.T) {
	a := newLocalAgent(t, 1)
	runTicks(a, 20)
	before := a.cells[0]
	if err := a.assign(testCells(1)[0]); err != nil {
		t.Fatal(err)
	}
	if a.cells[0] != before {
		t.Fatal("re-assigning a running cell replaced its runtime and HARQ state")
	}
	moved := testCells(1)[0]
	moved.PCI++
	if err := a.assign(moved); err != nil {
		t.Fatal(err)
	}
	if a.cells[0] == before || a.cells[0].cfg.PCI != moved.PCI {
		t.Fatal("an assignment with a new configuration did not rebuild the cell")
	}
}
