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
		{Workers: 1, DeadlineScale: 1, Degrade: DegradeConfig{Period: -time.Millisecond}},
		{Workers: 1, DeadlineScale: 1, Degrade: DegradeConfig{DwellPeriods: -1}},
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

// decodeAtLevel runs one subframe through a pool set to lvl and returns the
// completed tasks keyed by RNTI.
func decodeAtLevel(t *testing.T, work frame.SubframeWork, lvl cluster.DegradationLevel) map[frame.RNTI]*Task {
	t.Helper()
	pool := testPool(t, Config{Workers: 1, Policy: EDF, DeadlineScale: 1000})
	if err := pool.setLevel(lvl); err != nil {
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
	if err := pool.setLevel(cluster.DegradeShedHARQ); err != nil {
		t.Fatal(err)
	}
	ingest(4)
	if n := cp.HARQ().Processes(); n != 0 {
		t.Fatalf("shed rung still tracked %d HARQ processes", n)
	}
	if err := pool.setLevel(cluster.DegradeNone); err != nil {
		t.Fatal(err)
	}
	ingest(12)
	if cp.HARQ().Processes() == 0 {
		t.Fatal("combining not restored after dropping to level 0")
	}
}

func TestDegradeLevelAccessors(t *testing.T) {
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1})
	if err := pool.setLevel(cluster.MaxDegradationLevel + 1); err == nil {
		t.Fatal("invalid level accepted")
	}
	if err := pool.setLevel(cluster.DegradeTightCap); err != nil {
		t.Fatal(err)
	}
	if pool.Level() != cluster.DegradeTightCap {
		t.Fatal("level not read back")
	}
}

// TestHeadroomControllerHysteresis drives the loop's step() directly with
// the default thresholds: thin slack climbs the ladder one rung per
// transition with a dwell period between, and fat slack with an empty queue
// walks it back down the same way.
func TestHeadroomControllerHysteresis(t *testing.T) {
	pool := testPool(t, Config{
		Workers: 1, DeadlineScale: 1000,
		Degrade: DegradeConfig{DwellPeriods: 1},
	})
	d := pool.deg
	budget := pool.cfg.Budget()
	// feed runs one period whose one completion finished with slackFrac of
	// its budget left, and checks the level moved by at most one rung.
	feed := func(slackFrac float64) cluster.DegradationLevel {
		t.Helper()
		before := pool.Level()
		d.slackNanos.Store(int64(slackFrac * float64(budget)))
		d.slackCount.Store(1)
		d.step()
		after := pool.Level()
		if after > before+1 || before > after+1 {
			t.Fatalf("level jumped %v → %v in one period", before, after)
		}
		return after
	}

	// Idle pool: full slack, empty queue — stays at full service.
	for i := 0; i < 3; i++ {
		if got := feed(1.0); got != cluster.DegradeNone {
			t.Fatalf("idle pool degraded to %v", got)
		}
	}

	// Thin slack: the smoothed signal crosses the raise bar within a few
	// periods, then one rung per transition with a dwell period between.
	i := 0
	for ; i < 20 && pool.Level() == cluster.DegradeNone; i++ {
		feed(0.0)
	}
	if got := pool.Level(); got != cluster.DegradeIterCap {
		t.Fatalf("after %d thin-slack periods: %v", i, got)
	}
	if got := feed(0.0); got != cluster.DegradeIterCap {
		t.Fatalf("dwell not honoured: %v", got)
	}
	if got := feed(0.0); got != cluster.DegradeTightCap {
		t.Fatalf("second raise missing: %v", got)
	}
	for i := 0; i < 6; i++ {
		feed(0.0)
	}
	if got := pool.Level(); got != cluster.MaxDegradationLevel {
		t.Fatalf("ladder topped out at %v", got)
	}

	// Recovery: fat slack and an empty queue walk back down rung by rung.
	for i := 0; i < 20 && pool.Level() != cluster.DegradeNone; i++ {
		feed(1.0)
	}
	if got := pool.Level(); got != cluster.DegradeNone {
		t.Fatalf("never recovered: %v", got)
	}
}

// TestHeadroomLoopCarriesUncountedSlack: a period that ends between a
// completion's two accumulator adds keeps that completion's nanos for the
// next period, which then averages them with its count instead of reading
// the task at zero slack.
func TestHeadroomLoopCarriesUncountedSlack(t *testing.T) {
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1000})
	d := pool.deg
	d.slackNanos.Add(int64(0.9 * float64(pool.cfg.Budget())))
	d.step()
	d.slackCount.Add(1)
	d.step()
	if d.ewmaSlack < 0.9 {
		t.Fatalf("smoothed slack %.3f after one completion at 0.9 slack, want ≥ 0.9", d.ewmaSlack)
	}
}
