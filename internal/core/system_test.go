package core

import (
	"testing"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/ranapi"
	"pran/internal/traffic"
)

func smallConfig(nCells int) Config {
	return Config{
		Cells:             DefaultCells(nCells, phy.BW1_4MHz, 1),
		Pool:              dataplane.Config{Workers: 2, Policy: dataplane.EDF, DeadlineScale: 1000},
		Controller:        controller.DefaultConfig(),
		Cluster:           ClusterSpec{Servers: 4, Active: 1, CoresPerServer: 8, Speed: 1},
		Seed:              11,
		StartHour:         12,
		ControlPeriodTTIs: 20,
	}
}

func TestSystemEndToEnd(t *testing.T) {
	s, err := New(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumCells() != 2 {
		t.Fatal("cell count")
	}
	if err := s.RunTTIs(60); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if s.TTI() != 60 {
		t.Fatalf("tti %v", s.TTI())
	}
	st := s.Pool().Stats()
	if st.Submitted == 0 {
		t.Fatal("no tasks reached the pool")
	}
	if st.Completed+st.Abandoned != st.Submitted {
		t.Fatalf("task accounting: %+v", st)
	}
	// Controller stepped 3 times and observed demand.
	rounds, _, _ := s.Controller().Stats()
	if rounds != 3 {
		t.Fatalf("controller rounds %d", rounds)
	}
	if s.Controller().Monitor().TotalDemand() <= 0 {
		t.Fatal("no demand observed")
	}
	// Cost model accessor sane.
	if s.CostModel().Validate() != nil {
		t.Fatal("invalid model in use")
	}
}

func TestSystemDecodesCorrectly(t *testing.T) {
	// At the default profiles' SNRs, the vast majority of tasks must
	// decode successfully (CRC pass).
	s, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunTTIs(100); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	st := s.Pool().Stats()
	if st.Submitted == 0 {
		t.Fatal("no tasks")
	}
	failFrac := float64(st.CRCFailures) / float64(st.Submitted)
	if failFrac > 0.35 {
		t.Fatalf("CRC failure fraction %.2f too high (link adaptation broken?)", failFrac)
	}
}

func TestSystemWithRANProgram(t *testing.T) {
	s, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stats := ranapi.NewStatsProgram()
	if err := s.Programs().Register(stats); err != nil {
		t.Fatal(err)
	}
	throttle := ranapi.NewThrottleProgram(2)
	if err := s.Programs().Register(throttle); err != nil {
		t.Fatal(err)
	}
	if err := s.RunTTIs(50); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	st, ok := stats.Stats(frame.CellID(0))
	if !ok || st.Subframes != 50 {
		t.Fatalf("stats program saw %+v", st)
	}
	// Throttle is after stats in the chain, so stats sees the raw PRBs;
	// but the pool must never have processed more than 2 PRB per subframe.
	// 1.4 MHz cell → up to 6 PRB demand, so shedding must have occurred.
	if throttle.Shed() == 0 {
		t.Fatal("throttle never shed under full load")
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := smallConfig(2)
	cfg.Cells[1].Config.Bandwidth = phy.BW5MHz
	if _, err := New(cfg); err == nil {
		t.Fatal("mixed bandwidths accepted")
	}
	cfg = smallConfig(1)
	cfg.Pool.Workers = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("bad pool config accepted")
	}
	cfg = smallConfig(1)
	cfg.Cluster.Active = 9
	if _, err := New(cfg); err == nil {
		t.Fatal("bad cluster spec accepted")
	}
	cfg = smallConfig(1)
	cfg.Cells[0].Profile = traffic.CellProfile{}
	if _, err := New(cfg); err == nil {
		t.Fatal("bad profile accepted")
	}
}

func TestSystemCloseTwice(t *testing.T) {
	s, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if err := s.RunTTIs(1); err == nil {
		t.Fatal("run after close succeeded")
	}
}

func TestDefaultCells(t *testing.T) {
	cells := DefaultCells(10, phy.BW5MHz, 2)
	if len(cells) != 10 {
		t.Fatal("count")
	}
	seen := map[uint16]bool{}
	for i, c := range cells {
		if err := c.Config.Validate(); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if err := c.Profile.Validate(); err != nil {
			t.Fatalf("cell %d profile: %v", i, err)
		}
		if c.Config.ID != frame.CellID(i) {
			t.Fatal("IDs not sequential")
		}
		seen[c.Config.PCI] = true
	}
	if len(seen) != 10 {
		t.Fatal("PCIs collide within a small deployment")
	}
}

func TestSystemDegradationFeedback(t *testing.T) {
	// A cell's degradation level — however it was set — must flow back to
	// the scheduler as an MCS cap at the next control period, and clear
	// when the cell returns to full service.
	s, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	caps := s.MCSCaps()
	if caps == nil {
		t.Fatal("MCS-cap program not registered on a ladder-capable system")
	}
	if caps.Cap(0) != phy.MaxMCS {
		t.Fatal("fresh system already capped")
	}
	if err := s.Pool().SetCellLevel(0, cluster.DegradeShedHARQ); err != nil {
		t.Fatal(err)
	}
	if err := s.RunTTIs(20); err != nil { // one control period
		t.Fatal(err)
	}
	s.Drain()
	if got, want := caps.Cap(0), cluster.DegradeShedHARQ.MCSCap(); got != want {
		t.Fatalf("cap %v after degradation, want %v", got, want)
	}
	if err := s.Pool().SetCellLevel(0, cluster.DegradeNone); err != nil {
		t.Fatal(err)
	}
	if err := s.RunTTIs(20); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if caps.Cap(0) != phy.MaxMCS {
		t.Fatal("cap not cleared after returning to full service")
	}
}

// TestSystemModelFollowsPoolProfile pins that the model a System attributes
// demand with prices the pipeline its pool runs: naming float32 on the pool
// alone must make AllocCost the float32 model's, whichever model was passed.
func TestSystemModelFollowsPoolProfile(t *testing.T) {
	f32 := phy.DecodeProfile{Kernel: phy.KernelFloat32}
	a := frame.Allocation{RNTI: 1, NumPRB: 6, MCS: 20, SNRdB: phy.MCS(20).OperatingSNR()}
	want := cluster.DefaultCostModel().WithProfile(f32).AllocCost(a)
	if want == cluster.DefaultCostModel().AllocCost(a) {
		t.Fatal("float32 and default models price the allocation alike; the test cannot tell them apart")
	}
	for name, model := range map[string]cluster.CostModel{
		"no model":      {},
		"default model": cluster.DefaultCostModel(),
	} {
		cfg := smallConfig(1)
		cfg.Pool.Decode = f32
		cfg.CostModel = model
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.CostModel().Profile; got != f32 {
			t.Errorf("%s: system model prices %+v, pool runs %+v", name, got, f32)
		}
		if got := s.CostModel().AllocCost(a); got != want {
			t.Errorf("%s: AllocCost %v on a float32 pool, float32 model says %v", name, got, want)
		}
		s.Close()
	}
}

func TestMeasuredMissRateRuns(t *testing.T) {
	s, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rate, err := s.MeasuredMissRate(30)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0 || rate > 1 {
		t.Fatalf("miss rate %v", rate)
	}
}
