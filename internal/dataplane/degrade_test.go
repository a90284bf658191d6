package dataplane

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"pran/internal/cluster"
	"pran/internal/frame"
	"pran/internal/phy"
)

func TestDegradeConfigValidate(t *testing.T) {
	bad := []Config{
		{Workers: 1, DeadlineScale: 1, Degrade: DegradeConfig{MaxLevel: cluster.MaxDegradationLevel + 1}},
		{Workers: 1, DeadlineScale: 1, Degrade: DegradeConfig{Period: -time.Millisecond}},
		{Workers: 1, DeadlineScale: 1, Degrade: DegradeConfig{Alpha: 1.5}},
		{Workers: 1, DeadlineScale: 1, Degrade: DegradeConfig{RaiseDepth: 1, LowerDepth: 2}},
		{Workers: 1, DeadlineScale: 1, Degrade: DegradeConfig{RaiseSlack: 0.5, LowerSlack: 0.4}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if err := (Config{Workers: 1, DeadlineScale: 1, Degrade: DegradeConfig{Enable: true}}).Validate(); err != nil {
		t.Fatalf("default ladder config rejected: %v", err)
	}
}

// decodeAtLevel runs one subframe through a pool pinned at lvl and returns
// the completed tasks keyed by RNTI.
func decodeAtLevel(t *testing.T, work frame.SubframeWork, lvl cluster.DegradationLevel) map[frame.RNTI]*Task {
	t.Helper()
	pool := testPool(t, Config{Workers: 1, Policy: EDF, DeadlineScale: 1000})
	if err := pool.SetCellLevel(work.Cell, lvl); err != nil {
		t.Fatal(err)
	}
	out := make(map[frame.RNTI]*Task)
	for _, tk := range endToEnd(t, pool, work) {
		out[tk.Alloc.RNTI] = tk
	}
	return out
}

// TestLadderMonotoneProperty is the ladder's behavioural contract: walking
// up the rungs never increases per-TB decode work (iterations stay within
// each rung's shrinking budget) and never changes the CRC outcome of a
// block that both rungs decode successfully — comfortable blocks survive
// every rung bit-for-bit, hopeless blocks fail every rung.
func TestLadderMonotoneProperty(t *testing.T) {
	good := frame.SubframeWork{
		Cell: 1, TTI: 1,
		Allocations: []frame.Allocation{
			{RNTI: 100, FirstPRB: 0, NumPRB: 3, MCS: 8, SNRdB: phy.MCS(8).OperatingSNR() + 4},
			{RNTI: 101, FirstPRB: 3, NumPRB: 3, MCS: 12, SNRdB: phy.MCS(12).OperatingSNR() + 4},
		},
	}
	var ref map[frame.RNTI]*Task
	for lvl := cluster.DegradeNone; lvl <= cluster.MaxDegradationLevel; lvl++ {
		done := decodeAtLevel(t, good, lvl)
		cap := lvl.IterCap()
		if cap == 0 {
			cap = phy.DefaultTurboIterations
		}
		for rnti, tk := range done {
			if tk.Err != nil {
				t.Fatalf("level %v: comfortable block rnti %d failed: %v", lvl, rnti, tk.Err)
			}
			if tk.Degrade != lvl {
				t.Fatalf("level %v: task stamped %v", lvl, tk.Degrade)
			}
			if tk.TurboIterations > cap {
				t.Fatalf("level %v: %d iterations exceed the rung's cap %d", lvl, tk.TurboIterations, cap)
			}
			if ref != nil && !bytes.Equal(tk.Payload, ref[rnti].Payload) {
				t.Fatalf("level %v: rnti %d payload diverged from level %v", lvl, rnti, lvl-1)
			}
		}
		ref = done
	}
	// A hopeless block (far below the operating point) fails CRC at every
	// rung — degradation never turns garbage into a pass.
	hopeless := frame.SubframeWork{
		Cell: 1, TTI: 1,
		Allocations: []frame.Allocation{
			{RNTI: 100, FirstPRB: 0, NumPRB: 4, MCS: 20, SNRdB: phy.MCS(20).OperatingSNR() - 15},
		},
	}
	for lvl := cluster.DegradeNone; lvl <= cluster.MaxDegradationLevel; lvl++ {
		done := decodeAtLevel(t, hopeless, lvl)
		if tk := done[100]; !errors.Is(tk.Err, phy.ErrCRC) {
			t.Fatalf("level %v: hopeless block returned %v, want CRC failure", lvl, tk.Err)
		}
	}
}

// TestShedHARQSkipsSoftState checks the deepest rung's shed: at level 3 the
// ingest path attaches no soft-combining buffer, so the cell accumulates no
// HARQ state; dropping back to level 0 restores combining.
func TestShedHARQSkipsSoftState(t *testing.T) {
	pool := testPool(t, Config{Workers: 1, Policy: EDF, DeadlineScale: 1000})
	cfg := testCellConfig()
	rrh, _ := NewRRHEmulator(cfg, 5)
	cp, _ := NewCellProcessor(cfg, pool)
	work := frame.SubframeWork{
		Cell: 1, TTI: 4,
		Allocations: []frame.Allocation{
			{RNTI: 9, FirstPRB: 0, NumPRB: 4, MCS: 10, HARQProcess: 1, SNRdB: phy.MCS(10).OperatingSNR() + 3},
		},
	}
	payloads, _ := rrh.RandomPayloads(work)
	ingest := func(tti frame.TTI) {
		w := work
		w.TTI = tti
		samples, err := rrh.Emit(w, payloads)
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan *Task, 1)
		if err := cp.IngestSubframe(samples, w, func(tk *Task) { ch <- tk }); err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	if err := pool.SetCellLevel(1, cluster.DegradeShedHARQ); err != nil {
		t.Fatal(err)
	}
	ingest(4)
	if n := cp.HARQ().Processes(); n != 0 {
		t.Fatalf("shed rung still tracked %d HARQ processes", n)
	}
	if err := pool.SetCellLevel(1, cluster.DegradeNone); err != nil {
		t.Fatal(err)
	}
	ingest(12)
	if cp.HARQ().Processes() == 0 {
		t.Fatal("combining not restored after dropping to level 0")
	}
}

func TestDegradeLevelAccessors(t *testing.T) {
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1})
	if err := pool.SetCellLevel(1, cluster.MaxDegradationLevel+1); err == nil {
		t.Fatal("invalid level accepted")
	}
	if err := pool.SetCellLevel(2, cluster.DegradeForceI16); err != nil {
		t.Fatal(err)
	}
	if pool.CellLevel(2) != cluster.DegradeForceI16 {
		t.Fatal("pinned level not read back")
	}
	if lv := pool.CellLevels(); len(lv) != 1 || lv[2] != cluster.DegradeForceI16 {
		t.Fatalf("snapshot %v", lv)
	}
}

// TestHeadroomControllerHysteresis drives the controller's step() directly:
// thin slack climbs the ladder one rung per dwell window, fat slack with an
// empty queue walks it back down, and a fresh cell inherits the pool-wide
// target.
func TestHeadroomControllerHysteresis(t *testing.T) {
	// Alpha 1 makes the EWMAs track each period's sample exactly, so the
	// test controls the signals without modelling the smoothing.
	pool := testPool(t, Config{
		Workers: 1, DeadlineScale: 1000,
		Degrade: DegradeConfig{Alpha: 1, DwellPeriods: 1},
	})
	d := pool.deg
	budget := pool.cfg.Budget()
	feed := func(slackFrac float64) {
		d.slackNanos.Store(int64(slackFrac * float64(budget)))
		d.slackCount.Store(1)
		d.step()
	}

	// Idle pool: full slack, empty queue — stays at full service.
	for i := 0; i < 3; i++ {
		feed(1.0)
	}
	if got := pool.DegradeTarget(); got != cluster.DegradeNone {
		t.Fatalf("idle pool degraded to %v", got)
	}

	// Thin slack: one rung per transition, with a dwell period between.
	feed(0.0)
	if got := pool.DegradeTarget(); got != cluster.DegradeIterCap {
		t.Fatalf("after thin slack: %v", got)
	}
	feed(0.0) // dwell period — no move
	if got := pool.DegradeTarget(); got != cluster.DegradeIterCap {
		t.Fatalf("dwell not honoured: %v", got)
	}
	feed(0.0)
	if got := pool.DegradeTarget(); got != cluster.DegradeForceI16 {
		t.Fatalf("second raise missing: %v", got)
	}
	for i := 0; i < 6; i++ {
		feed(0.0)
	}
	if got := pool.DegradeTarget(); got != cluster.MaxDegradationLevel {
		t.Fatalf("ladder topped out at %v", got)
	}

	// A cell first seen now inherits the pool-wide target.
	if got := pool.CellLevel(42); got != cluster.MaxDegradationLevel {
		t.Fatalf("new cell at %v, want target", got)
	}

	// Recovery: fat slack and an empty queue walk back down rung by rung.
	for i := 0; i < 10 && pool.DegradeTarget() != cluster.DegradeNone; i++ {
		feed(1.0)
	}
	if got := pool.DegradeTarget(); got != cluster.DegradeNone {
		t.Fatalf("never recovered: %v", got)
	}
	if got := pool.CellLevel(42); got != cluster.DegradeNone {
		t.Fatalf("cell 42 left behind at %v", got)
	}
}

// TestHeadroomControllerMaxLevel pins the automatic controller to its
// configured ceiling (manual pins are unbounded).
func TestHeadroomControllerMaxLevel(t *testing.T) {
	pool := testPool(t, Config{
		Workers: 1, DeadlineScale: 1000,
		Degrade: DegradeConfig{Alpha: 1, DwellPeriods: 1, MaxLevel: cluster.DegradeIterCap},
	})
	d := pool.deg
	for i := 0; i < 8; i++ {
		d.slackNanos.Store(0)
		d.slackCount.Store(1)
		d.step()
	}
	if got := pool.DegradeTarget(); got != cluster.DegradeIterCap {
		t.Fatalf("controller exceeded MaxLevel: %v", got)
	}
	if err := pool.SetCellLevel(1, cluster.DegradeShedHARQ); err != nil {
		t.Fatal(err)
	}
	if got := pool.CellLevel(1); got != cluster.DegradeShedHARQ {
		t.Fatalf("manual pin bounded by MaxLevel: %v", got)
	}
}
