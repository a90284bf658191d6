package controller

import (
	"errors"
	"math"
	"sync"
	"testing"

	"pran/internal/cluster"
	"pran/internal/frame"
)

func TestLoadMonitorEWMA(t *testing.T) {
	m, err := NewLoadMonitor(0.5)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(1, 1.0)
	if m.Demand(1) != 1.0 {
		t.Fatalf("first sample: %v", m.Demand(1))
	}
	m.Observe(1, 0.0)
	if m.Demand(1) != 0.5 {
		t.Fatalf("after decay: %v", m.Demand(1))
	}
	if m.Last(1) != 0 {
		t.Fatalf("last: %v", m.Last(1))
	}
	m.Observe(2, 0.25)
	if math.Abs(m.TotalDemand()-0.75) > 1e-12 {
		t.Fatalf("total: %v", m.TotalDemand())
	}
	cells := m.Cells()
	if len(cells) != 2 || cells[0] != 1 || cells[1] != 2 {
		t.Fatalf("cells: %v", cells)
	}
	m.Forget(1)
	if m.Demand(1) != 0 || len(m.Cells()) != 1 {
		t.Fatal("forget failed")
	}
	// Negative demand clamps.
	m.Observe(3, -5)
	if m.Demand(3) != 0 {
		t.Fatal("negative demand not clamped")
	}
	if _, err := NewLoadMonitor(0); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	if _, err := NewLoadMonitor(1.5); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
}

func TestPredictorConstantSeries(t *testing.T) {
	p, err := NewPredictor(0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p.Observe(4.0)
	}
	if f := p.Forecast(5); math.Abs(f-4.0) > 1e-6 {
		t.Fatalf("constant forecast %v", f)
	}
	if p.Samples() != 50 {
		t.Fatal("sample count")
	}
}

func TestPredictorTracksRamp(t *testing.T) {
	p, _ := NewPredictor(0.5, 0.3)
	// Ramp 1, 2, 3, ... : forecast k steps ahead should exceed the last
	// observation (that's the whole point of predictive scaling).
	last := 0.0
	for i := 1; i <= 60; i++ {
		last = float64(i)
		p.Observe(last)
	}
	f := p.Forecast(5)
	if f <= last {
		t.Fatalf("forecast %v not ahead of last %v on a ramp", f, last)
	}
	if f > last+10 {
		t.Fatalf("forecast %v wildly overshoots", f)
	}
}

func TestPredictorClamps(t *testing.T) {
	p, _ := NewPredictor(0.9, 0.9)
	p.Observe(10)
	p.Observe(0) // steep downward trend
	for i := 0; i < 5; i++ {
		p.Observe(0)
	}
	if f := p.Forecast(50); f < 0 {
		t.Fatalf("negative forecast %v", f)
	}
	var empty Predictor
	if empty.Forecast(3) != 0 {
		t.Fatal("empty predictor forecast")
	}
	if _, err := NewPredictor(0, 0.5); err == nil {
		t.Fatal("bad alpha accepted")
	}
	if _, err := NewPredictor(0.5, 2); err == nil {
		t.Fatal("bad beta accepted")
	}
}

func servers(caps ...float64) []cluster.Server {
	var out []cluster.Server
	for i, c := range caps {
		out = append(out, cluster.Server{ID: cluster.ServerID(i), Cores: int(c), SpeedFactor: 1, State: cluster.Active})
	}
	return out
}

func TestPlaceFirstFitDecreasing(t *testing.T) {
	demands := map[frame.CellID]float64{1: 3, 2: 2, 3: 2, 4: 1}
	res, err := Place(demands, servers(4, 4), nil, FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	// FFD: 3→s0, 2→s0 (fits 4-3? no, 1 left) → s1, 2→s1, 1→s0.
	if res.Placement[1] != 0 || res.Placement[2] != 1 || res.Placement[3] != 1 || res.Placement[4] != 0 {
		t.Fatalf("placement %v", res.Placement)
	}
	if res.ServerLoad[0] != 4 || res.ServerLoad[1] != 4 {
		t.Fatalf("loads %v", res.ServerLoad)
	}
}

func TestPlaceWorstFitBalances(t *testing.T) {
	demands := map[frame.CellID]float64{1: 1, 2: 1, 3: 1, 4: 1}
	res, err := Place(demands, servers(4, 4), nil, WorstFit)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerLoad[0] != 2 || res.ServerLoad[1] != 2 {
		t.Fatalf("worst-fit should balance: %v", res.ServerLoad)
	}
}

func TestPlaceSticky(t *testing.T) {
	demands := map[frame.CellID]float64{1: 1, 2: 1, 3: 1}
	prev := Placement{1: 1, 2: 1, 3: 0}
	res, err := Place(demands, servers(4, 4), prev, FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Fatalf("sticky placement migrated %d cells: %v", res.Migrations, res.Placement)
	}
	for c, s := range prev {
		if res.Placement[c] != s {
			t.Fatalf("cell %d moved from %d to %d", c, s, res.Placement[c])
		}
	}
}

func TestPlaceEvictsWhenHomeFull(t *testing.T) {
	// Cell 1's demand grew beyond its old server; it must migrate.
	demands := map[frame.CellID]float64{1: 5, 2: 1}
	prev := Placement{1: 0, 2: 0}
	res, err := Place(demands, []cluster.Server{
		{ID: 0, Cores: 4, SpeedFactor: 1, State: cluster.Active},
		{ID: 1, Cores: 8, SpeedFactor: 1, State: cluster.Active},
	}, prev, FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[1] != 1 {
		t.Fatalf("oversized cell not moved: %v", res.Placement)
	}
	if res.Migrations != 1 {
		t.Fatalf("migrations %d", res.Migrations)
	}
}

func TestPlaceUnplaceable(t *testing.T) {
	demands := map[frame.CellID]float64{1: 10}
	_, err := Place(demands, servers(4), nil, FirstFitDecreasing)
	if !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("err %v", err)
	}
	// No active servers at all.
	_, err = Place(demands, nil, nil, FirstFitDecreasing)
	if !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("err %v", err)
	}
	// Inactive servers contribute nothing.
	inactive := []cluster.Server{{ID: 0, Cores: 100, SpeedFactor: 1, State: cluster.Standby}}
	if _, err := Place(demands, inactive, nil, FirstFitDecreasing); !errors.Is(err, ErrUnplaceable) {
		t.Fatal("standby capacity used")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	demands := map[frame.CellID]float64{}
	for i := 0; i < 40; i++ {
		demands[frame.CellID(i)] = float64(i%7+1) * 0.3
	}
	a, err := Place(demands, servers(8, 8, 8, 8, 8, 8, 8), nil, FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b, err := Place(demands, servers(8, 8, 8, 8, 8, 8, 8), nil, FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		for c := range demands {
			if a.Placement[c] != b.Placement[c] {
				t.Fatal("placement not deterministic")
			}
		}
	}
}

func TestPlacementMigrations(t *testing.T) {
	a := Placement{1: 0, 2: 0, 3: 1}
	b := Placement{1: 0, 2: 1, 3: 2, 4: 0}
	if a.Migrations(b) != 2 {
		t.Fatalf("migrations %d", a.Migrations(b))
	}
	c := a.Clone()
	c[1] = 5
	if a[1] == 5 {
		t.Fatal("clone aliased")
	}
}

func TestPlacePolicyString(t *testing.T) {
	if FirstFitDecreasing.String() != "first-fit-decreasing" || WorstFit.String() != "worst-fit" {
		t.Fatal("policy names")
	}
	if Reactive.String() != "reactive" || Predictive.String() != "predictive" {
		t.Fatal("mode names")
	}
}

func TestScalePolicyHeadroom(t *testing.T) {
	s := &ScalePolicy{Headroom: 0.25, DownFactor: 0.7, DownRounds: 2}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// 10 cores demand × 1.25 = 12.5 → 2 servers of 8.
	if n := s.ServersFor(10, 8); n != 2 {
		t.Fatalf("servers %d", n)
	}
	if n := s.ServersFor(0, 8); n != 1 {
		t.Fatal("zero demand should keep one server")
	}
	if n := s.ServersFor(10, 0); n != 0 {
		t.Fatal("zero capacity")
	}
}

func TestScalePolicyHysteresis(t *testing.T) {
	s := &ScalePolicy{Headroom: 0.2, DownFactor: 0.7, DownRounds: 3}
	// Scale up is immediate.
	if got := s.Target(20, 8, 1); got != 3 {
		t.Fatalf("scale up to %d", got)
	}
	// Scale down requires DownRounds consecutive justified rounds.
	cur := 3
	for round := 1; round <= 2; round++ {
		if got := s.Target(2, 8, cur); got != cur {
			t.Fatalf("round %d scaled down early", round)
		}
	}
	if got := s.Target(2, 8, cur); got != cur-1 {
		t.Fatalf("round 3 should scale down, got %d", got)
	}
	// And only one at a time.
	if got := s.Target(2, 8, cur-1); got != cur-1 {
		t.Fatal("second scale-down happened without a fresh streak")
	}
}

func TestScalePolicyValidation(t *testing.T) {
	bad := []*ScalePolicy{
		{Headroom: -1, DownFactor: 0.5, DownRounds: 1},
		{Headroom: 0.2, DownFactor: 0, DownRounds: 1},
		{Headroom: 0.2, DownFactor: 1, DownRounds: 1},
		{Headroom: 0.2, DownFactor: 0.5, DownRounds: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad policy %d accepted", i)
		}
	}
}

func newTestController(t *testing.T, mode Mode, nServers, nActive int) *Controller {
	t.Helper()
	cl, err := cluster.Uniform(nServers, nActive, 8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = mode
	c, err := New(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestControllerScalesUpUnderRamp(t *testing.T) {
	c := newTestController(t, Predictive, 8, 1)
	for round := 0; round < 20; round++ {
		demand := float64(round) * 1.5 // total ramps to 30 cores
		for cell := 0; cell < 10; cell++ {
			c.ObserveCell(frame.CellID(cell), demand/10)
		}
		rep, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Dropped) > 0 {
			t.Fatalf("round %d dropped cells %v", round, rep.Dropped)
		}
	}
	counts := c.Cluster().Counts()
	if counts[cluster.Active] < 4 {
		t.Fatalf("ramp to ~30 cores left only %d active servers", counts[cluster.Active])
	}
	rounds, _, promotions := c.Stats()
	if rounds != 20 || promotions == 0 {
		t.Fatalf("stats rounds=%d promotions=%d", rounds, promotions)
	}
}

func TestControllerScalesDownAfterPeak(t *testing.T) {
	c := newTestController(t, Reactive, 6, 6)
	// Sustained low demand must eventually drain servers.
	for round := 0; round < 50; round++ {
		c.ObserveCell(1, 0.5)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	counts := c.Cluster().Counts()
	if counts[cluster.Active] > 2 {
		t.Fatalf("still %d active servers for 0.5 cores of demand", counts[cluster.Active])
	}
	// The drained servers returned to standby, not limbo.
	if counts[cluster.Draining] != 0 {
		t.Fatalf("%d servers stuck draining", counts[cluster.Draining])
	}
}

func TestControllerPredictiveLeadsReactive(t *testing.T) {
	// On a steep ramp the predictive controller should hold at least as
	// many active servers as the reactive one at the same round.
	pred := newTestController(t, Predictive, 10, 1)
	reac := newTestController(t, Reactive, 10, 1)
	leadObserved := false
	for round := 0; round < 15; round++ {
		demand := float64(round) * 2
		pred.ObserveCell(1, demand)
		reac.ObserveCell(1, demand)
		rp, err := pred.Step()
		if err != nil {
			t.Fatal(err)
		}
		rr, err := reac.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rp.Active < rr.Active {
			t.Fatalf("round %d: predictive %d < reactive %d", round, rp.Active, rr.Active)
		}
		if rp.Active > rr.Active {
			leadObserved = true
		}
	}
	if !leadObserved {
		t.Fatal("predictive never led reactive on a steep ramp")
	}
}

func TestControllerFailover(t *testing.T) {
	c := newTestController(t, Reactive, 4, 2)
	for cell := 0; cell < 6; cell++ {
		c.ObserveCell(frame.CellID(cell), 2.0) // 12 cores total on 16 active
	}
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	// Find a server hosting cells and kill it.
	victim := c.Placement()[0]
	rep, err := c.OnServerFailure(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LostCells) == 0 {
		t.Fatal("victim hosted no cells?")
	}
	if len(rep.Dropped) != 0 {
		t.Fatalf("failover dropped cells %v", rep.Dropped)
	}
	// All cells re-placed on live servers.
	for cell, srv := range c.Placement() {
		s, err := c.Cluster().Get(srv)
		if err != nil || s.State != cluster.Active {
			t.Fatalf("cell %d on dead/missing server %d", cell, srv)
		}
	}
	if rep.Promotions == 0 && len(c.Cluster().InState(cluster.Active)) < 2 {
		t.Fatal("no capacity recovered")
	}
}

func TestControllerShedsWhenExhausted(t *testing.T) {
	c := newTestController(t, Reactive, 1, 1) // single 8-core server
	for cell := 0; cell < 4; cell++ {
		c.ObserveCell(frame.CellID(cell), 3.0) // 12 cores demanded
	}
	rep, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Unplaceable || len(rep.Dropped) == 0 {
		t.Fatalf("expected shedding: %+v", rep)
	}
	// The placed cells must fit.
	placedDemand := 0.0
	for cell := range c.Placement() {
		placedDemand += c.Monitor().Demand(cell)
	}
	if placedDemand > 8 {
		t.Fatalf("placed %v cores on an 8-core server", placedDemand)
	}
}

func TestControllerConfigValidation(t *testing.T) {
	cl, _ := cluster.Uniform(2, 1, 4, 1)
	cfg := DefaultConfig()
	cfg.ForecastSteps = -1
	if _, err := New(cfg, cl); err == nil {
		t.Fatal("negative forecast steps accepted")
	}
	cfg = DefaultConfig()
	cfg.MonitorAlpha = 0
	if _, err := New(cfg, cl); err == nil {
		t.Fatal("bad monitor alpha accepted")
	}
	cfg = DefaultConfig()
	cfg.Scale = &ScalePolicy{Headroom: -1, DownFactor: 0.5, DownRounds: 1}
	if _, err := New(cfg, cl); err == nil {
		t.Fatal("bad scale policy accepted")
	}
}

// TestLoadMonitorDrainLosesNothing feeds the monitor from 16 goroutines
// while a drainer calls TakeChanges. With alpha 1 and every sample unique,
// each cell's final value must show up in exactly one change set, and it
// must be the last change set that names the cell: an update racing a
// drain lands in that drain or the next one, never in neither.
func TestLoadMonitorDrainLosesNothing(t *testing.T) {
	m, err := NewLoadMonitor(1)
	if err != nil {
		t.Fatal(err)
	}
	const writers, cells, samples = 16, 64, 2000
	var drained []ChangeSet
	stop := make(chan struct{})
	drainerDone := make(chan struct{})
	go func() {
		defer close(drainerDone)
		for {
			select {
			case <-stop:
				return
			default:
				drained = append(drained, m.TakeChanges())
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < samples; i++ {
				m.Observe(frame.CellID(i%cells), float64(1+w*samples+i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-drainerDone
	drained = append(drained, m.TakeChanges())

	for c := frame.CellID(0); c < cells; c++ {
		final := m.Demand(c)
		seen, last := 0, -1
		for i, ch := range drained {
			v, ok := ch.Updated[c]
			if !ok {
				continue
			}
			last = i
			if v == final {
				seen++
			}
		}
		if seen != 1 {
			t.Fatalf("cell %d: final value %v in %d change sets, want 1", c, final, seen)
		}
		if drained[last].Updated[c] != final {
			t.Fatalf("cell %d: last change set holds %v, want the final %v", c, drained[last].Updated[c], final)
		}
	}
	if ch := m.TakeChanges(); len(ch.Updated) != 0 || len(ch.Removed) != 0 {
		t.Fatalf("drained monitor still reports %d updates, %d removals", len(ch.Updated), len(ch.Removed))
	}
}
