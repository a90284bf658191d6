package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pran/internal/frame"
	"pran/internal/phy"
)

func TestDefaultCostModelValid(t *testing.T) {
	if err := DefaultCostModel().Validate(); err != nil {
		t.Fatal(err)
	}
	// Every coefficient is checked.
	for i := 0; i < reflect.TypeOf(CostModel{}).NumField(); i++ {
		bad := DefaultCostModel()
		reflect.ValueOf(&bad).Elem().Field(i).SetFloat(0)
		if err := bad.Validate(); err == nil {
			t.Fatalf("zero %s accepted", reflect.TypeOf(bad).Field(i).Name)
		}
	}
}

func TestAllocCostGrowsWithPRB(t *testing.T) {
	m := DefaultCostModel()
	prev := time.Duration(0)
	for _, nprb := range []int{5, 10, 25, 50, 100} {
		c := m.AllocCost(frame.Allocation{RNTI: 1, NumPRB: nprb, MCS: 15, SNRdB: 15})
		if c <= prev {
			t.Fatalf("cost not increasing at %d PRB", nprb)
		}
		prev = c
	}
}

func TestAllocCostGrowsWithMCS(t *testing.T) {
	m := DefaultCostModel()
	prev := time.Duration(0)
	for _, mcs := range []phy.MCS{0, 6, 12, 18, 24, 28} {
		// Hold the SNR margin constant so iteration count stays fixed and
		// the trend reflects bits-to-process.
		c := m.AllocCost(frame.Allocation{RNTI: 1, NumPRB: 50, MCS: mcs, SNRdB: mcs.OperatingSNR() + 2})
		if c <= prev {
			t.Fatalf("cost not increasing at MCS %d", mcs)
		}
		prev = c
	}
}

func TestTurboDominatesAtHighMCS(t *testing.T) {
	m := DefaultCostModel()
	a := frame.Allocation{RNTI: 1, NumPRB: 100, MCS: 28, SNRdB: phy.MCS(28).OperatingSNR()}
	total := m.AllocCost(a)
	// Rebuild just the turbo share, every bit at the full-span lane cost.
	tbs, _ := a.MCS.TransportBlockSize(a.NumPRB)
	iters := ExpectedTurboIterations(a.MCS, a.SNRdB)
	turbo := time.Duration(float64(tbs+24) * iters * m.TurboLanePerBitIter * float64(time.Second))
	if float64(turbo)/float64(total) < 0.5 {
		t.Fatalf("turbo share %v of %v below 50%%", turbo, total)
	}
}

func TestExpectedTurboIterations(t *testing.T) {
	op := phy.MCS(15).OperatingSNR()
	atOp := ExpectedTurboIterations(15, op)
	above := ExpectedTurboIterations(15, op+5)
	below := ExpectedTurboIterations(15, op-3)
	if !(below >= atOp && atOp > above) {
		t.Fatalf("iterations not decreasing with margin: %v %v %v", below, atOp, above)
	}
	if above < 1.5 || below > 8 {
		t.Fatalf("iteration clamps broken: %v %v", above, below)
	}
}

func TestCellOverheadScalesWithAntennasAndBW(t *testing.T) {
	m := DefaultCostModel()
	o1 := m.CellOverhead(phy.BW10MHz, 1)
	o2 := m.CellOverhead(phy.BW10MHz, 2)
	if o2 != 2*o1 {
		t.Fatalf("antennas: %v vs %v", o2, o1)
	}
	if m.CellOverhead(phy.BW20MHz, 1) <= o1 {
		t.Fatal("wider bandwidth should cost more")
	}
}

func TestSubframeCostSumsAllocations(t *testing.T) {
	m := DefaultCostModel()
	w := frame.SubframeWork{
		Allocations: []frame.Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 10, MCS: 10, SNRdB: 10},
			{RNTI: 2, FirstPRB: 10, NumPRB: 10, MCS: 10, SNRdB: 10},
		},
	}
	got := m.SubframeCost(w, phy.BW10MHz, 2)
	want := m.CellOverhead(phy.BW10MHz, 2) + 2*m.AllocCost(w.Allocations[0])
	if got != want {
		t.Fatalf("got %v want %v", got, want)
	}
	// An idle subframe is not transformed, so it costs nothing.
	if c := m.SubframeCost(frame.SubframeWork{}, phy.BW10MHz, 2); c != 0 {
		t.Fatalf("empty subframe costs %v", c)
	}
}

func TestCoreFraction(t *testing.T) {
	if CoreFraction(time.Millisecond) != 1 {
		t.Fatal("1 ms per subframe must be exactly one core")
	}
	if CoreFraction(250*time.Microsecond) != 0.25 {
		t.Fatal("quarter load wrong")
	}
}

func TestUtilizationDemandMonotone(t *testing.T) {
	m := DefaultCostModel()
	prev := -1.0
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		d := m.UtilizationDemand(phy.BW20MHz, 2, u, 15, 18)
		if d <= prev {
			t.Fatalf("demand not increasing at util %v", u)
		}
		prev = d
	}
	// An idle cell is priced as SubframeCost prices an idle subframe.
	if d := m.UtilizationDemand(phy.BW20MHz, 2, 0.001, 15, 18); d != 0 {
		t.Fatalf("idle cell demands %v cores", d)
	}
	// Clamps.
	if m.UtilizationDemand(phy.BW20MHz, 2, -1, 15, 18) != m.UtilizationDemand(phy.BW20MHz, 2, 0, 15, 18) {
		t.Fatal("negative utilization not clamped")
	}
	if m.UtilizationDemand(phy.BW20MHz, 2, 2, 15, 18) != m.UtilizationDemand(phy.BW20MHz, 2, 1, 15, 18) {
		t.Fatal("oversized utilization not clamped")
	}
}

func TestCalibrateProducesPlausibleModel(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow")
	}
	m, err := Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// A fully loaded 20 MHz high-MCS subframe costs between 0.1 ms and
	// a few seconds on one reference core: pure Go DSP runs tens of times
	// slower than the SIMD C stacks the paper used, which is why the data
	// plane exposes a deadline-scale knob (see internal/dataplane); the
	// *shape* across MCS/PRB is what carries over. The upper bound only
	// guards against unit errors (ms vs s would miss by orders of
	// magnitude) — it is deliberately loose enough for race-instrumented
	// runs on a loaded single-core CI box, where calibration coefficients
	// inflate severalfold.
	c := m.SubframeCost(frame.SubframeWork{Allocations: []frame.Allocation{
		{RNTI: 1, NumPRB: 100, MCS: 25, SNRdB: phy.MCS(25).OperatingSNR() + 1},
	}}, phy.BW20MHz, 1)
	if c < 100*time.Microsecond || c > 5*time.Second {
		t.Fatalf("calibrated full subframe cost %v implausible", c)
	}
}

func TestClusterLifecycle(t *testing.T) {
	c := New()
	if err := c.Add(Server{ID: 1, Cores: 8, SpeedFactor: 1, State: Active}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Server{ID: 1, Cores: 8, SpeedFactor: 1}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := c.Add(Server{ID: 2, Cores: 0, SpeedFactor: 1}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if err := c.Add(Server{ID: 2, Cores: 4, SpeedFactor: 0}); err == nil {
		t.Fatal("zero speed accepted")
	}
	s, err := c.Get(1)
	if err != nil || s.Capacity() != 8 {
		t.Fatalf("get: %+v, %v", s, err)
	}
	if _, err := c.Get(99); !errors.Is(err, ErrNoSuchServer) {
		t.Fatal("missing server not reported")
	}
}

func TestClusterStateMachine(t *testing.T) {
	c := New()
	_ = c.Add(Server{ID: 1, Cores: 4, SpeedFactor: 1, State: Standby})
	if err := c.SetState(1, Active); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := c.SetState(1, Active); !errors.Is(err, ErrBadTransition) {
		t.Fatal("failed→active allowed")
	}
	if err := c.SetState(1, Standby); err != nil {
		t.Fatal(err)
	}
	s, _ := c.Get(1)
	if s.State != Standby {
		t.Fatalf("after repair: %v", s.State)
	}
	if err := c.SetState(9, Active); !errors.Is(err, ErrNoSuchServer) {
		t.Fatal("state change on unknown server")
	}
}

// activeCapacity sums the capacity of c's active servers, in reference-core
// fractions.
func activeCapacity(c *Cluster) float64 {
	total := 0.0
	for _, s := range c.Servers() {
		total += s.Capacity()
	}
	return total
}

func TestClusterCapacityAndCounts(t *testing.T) {
	c, err := Uniform(5, 2, 8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := activeCapacity(c); got != 16 {
		t.Fatalf("capacity %v", got)
	}
	counts := c.Counts()
	if counts[Active] != 2 || counts[Standby] != 3 {
		t.Fatalf("counts %v", counts)
	}
	if len(c.InState(Standby)) != 3 {
		t.Fatal("InState wrong")
	}
	// Draining/failed capacity drops out.
	_ = c.SetState(0, Draining)
	if got := activeCapacity(c); got != 8 {
		t.Fatalf("capacity after drain %v", got)
	}
	// Deterministic order.
	ss := c.Servers()
	for i := 1; i < len(ss); i++ {
		if ss[i].ID <= ss[i-1].ID {
			t.Fatal("servers not sorted")
		}
	}
	if _, err := Uniform(2, 3, 8, 1); err == nil {
		t.Fatal("nActive > n accepted")
	}
}

func TestServerStateString(t *testing.T) {
	for st, want := range map[ServerState]string{Standby: "standby", Active: "active", Draining: "draining", Failed: "failed"} {
		if st.String() != want {
			t.Fatalf("%d → %q", st, st.String())
		}
	}
	if ServerState(9).String() == "" {
		t.Fatal("unknown state must print")
	}
}

func TestCostModelBatchSelection(t *testing.T) {
	m := DefaultCostModel()
	// A single-block transport block never rides a lockstep pass: the lane
	// coefficient does not price it.
	one := frame.Allocation{RNTI: 1, NumPRB: 4, MCS: 10, SNRdB: phy.MCS(10).OperatingSNR()}
	lanes := m
	lanes.TurboLanePerBitIter *= 2
	if m.AllocCost(one) != lanes.AllocCost(one) {
		t.Fatal("single-block cost depends on the lane coefficient")
	}
	// A ragged span is charged for its occupancy: 3 blocks (MCS 28, 25 PRB)
	// in one lockstep pass cost more per block than a full span, less than
	// three lone-block decodes.
	if got, full := m.spanUnits(3)/3, m.spanUnits(8)/8; got <= full {
		t.Fatalf("per-block cost of a 3-lane span %v not above a full span's %v", got, full)
	}
	if got, lone := m.spanUnits(3), 3*m.spanUnits(1); got >= lone {
		t.Fatalf("3-lane span %v not below three lone blocks %v", got, lone)
	}
	// The end points are the two calibration points.
	if m.spanUnits(1) != m.TurboLonePerBitIter || m.spanUnits(8) != 8*m.TurboLanePerBitIter {
		t.Fatalf("span end points %v/%v, want %v and 8×%v", m.spanUnits(1), m.spanUnits(8), m.TurboLonePerBitIter, m.TurboLanePerBitIter)
	}
}

// TestCostModelGoldenGrid pins DefaultCostModel's price of a 100-PRB
// allocation at each MCS's operating SNR to the nanosecond
// (testdata/costmodel_grid.txt).
func TestCostModelGoldenGrid(t *testing.T) {
	f, err := os.Open("testdata/costmodel_grid.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := DefaultCostModel()
	points := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		var mcs int
		var want int64
		if _, err := fmt.Sscan(line, &mcs, &want); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		a := frame.Allocation{RNTI: 1, NumPRB: 100, MCS: phy.MCS(mcs), SNRdB: phy.MCS(mcs).OperatingSNR()}
		if got := m.AllocCost(a).Nanoseconds(); got != want {
			t.Errorf("%q: got %d ns", line, got)
		}
		points++
	}
	if points != 4 {
		t.Fatalf("read %d grid points, want 4", points)
	}
}

// TestCalibrateDefaultPathModel pins what Calibrate returns on any host: a
// valid model, every coefficient positive, and a full lockstep span cheaper
// per lane than a lone block.
func TestCalibrateDefaultPathModel(t *testing.T) {
	if testing.Short() {
		t.Skip("measured calibration")
	}
	m, err := Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.TurboLanePerBitIter >= m.TurboLonePerBitIter {
		t.Fatalf("calibrated lane coefficient %.3g not below the lone-block %.3g",
			m.TurboLanePerBitIter, m.TurboLonePerBitIter)
	}
}
