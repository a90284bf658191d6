package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"os"
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
	bad := DefaultCostModel()
	bad.TurboPerBitIter = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero coefficient accepted")
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
	// Rebuild just the turbo share.
	tbs, _ := a.MCS.TransportBlockSize(a.NumPRB)
	iters := ExpectedTurboIterations(a.MCS, a.SNRdB)
	turbo := time.Duration(float64(tbs+24) * iters * m.TurboPerBitIter * float64(time.Second))
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
	// Turbo per bit-iteration should dwarf CRC per bit.
	if m.TurboPerBitIter < 5*m.CRCPerBit {
		t.Fatalf("turbo %.3g not ≫ CRC %.3g", m.TurboPerBitIter, m.CRCPerBit)
	}
	// 64-QAM demod costs more than QPSK per RE.
	if m.DemodPerRE64QAM <= m.DemodPerREQPSK {
		t.Fatalf("demod cost ordering wrong: %g vs %g", m.DemodPerRE64QAM, m.DemodPerREQPSK)
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
	if err := c.Repair(1); err != nil {
		t.Fatal(err)
	}
	s, _ := c.Get(1)
	if s.State != Standby {
		t.Fatalf("after repair: %v", s.State)
	}
	if err := c.Repair(1); err == nil {
		t.Fatal("repairing non-failed server allowed")
	}
	if err := c.Repair(9); !errors.Is(err, ErrNoSuchServer) {
		t.Fatal("repairing unknown server")
	}
	if err := c.SetState(9, Active); !errors.Is(err, ErrNoSuchServer) {
		t.Fatal("state change on unknown server")
	}
}

func TestClusterCapacityAndCounts(t *testing.T) {
	c, err := Uniform(5, 2, 8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ActiveCapacity(); got != 16 {
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
	if got := c.ActiveCapacity(); got != 8 {
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

// Profiles the selection tests derive models for.
var (
	profFloat32 = phy.DecodeProfile{Kernel: phy.KernelFloat32}
	profStaged  = phy.DecodeProfile{FrontEnd: phy.FrontEndStaged}
	profScalar  = phy.DecodeProfile{Batch: 1}
)

func TestCostModelKernelSelection(t *testing.T) {
	m := DefaultCostModel() // int16 lockstep is the zero profile, the default
	a := frame.Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 100, MCS: 27, SNRdB: phy.MCS(27).OperatingSNR()}
	base := m.WithProfile(profFloat32).AllocCost(a)
	fast := m.AllocCost(a)
	if fast >= base {
		t.Fatalf("int16 alloc cost %v not below float32 %v", fast, base)
	}
	// WithProfile is a copy: the receiver must keep its profile.
	if m.Profile != (phy.DecodeProfile{}) {
		t.Fatal("WithProfile mutated the receiver")
	}
	// A zero int16 coefficient must fail validation.
	bad := m
	bad.TurboPerBitIterI16 = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero TurboPerBitIterI16 accepted")
	}
}

func TestCostModelFrontEndSelection(t *testing.T) {
	m := DefaultCostModel()
	a := frame.Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 100, MCS: 27, SNRdB: phy.MCS(27).OperatingSNR()}
	fused := m.AllocCost(a) // FrontEndFused is the zero value, the default
	staged := m.WithProfile(profStaged).AllocCost(a)
	if fused >= staged {
		t.Fatalf("fused alloc cost %v not below staged %v", fused, staged)
	}
	// A zero fused coefficient must fail validation.
	bad := m
	bad.FusedPerRE64QAM = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero FusedPerRE64QAM accepted")
	}
}

func TestCostModelFrontEndVectorSelection(t *testing.T) {
	m := DefaultCostModel()
	a := frame.Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 100, MCS: 27, SNRdB: phy.MCS(27).OperatingSNR()}
	scalar := m.AllocCost(a) // FrontEndVector is false until a calibration sets it
	vec := m
	vec.FrontEndVector = true // what Calibrate records on an AVX2 host
	vector := vec.AllocCost(a)
	if vector >= scalar {
		t.Fatalf("vector fused alloc cost %v not below scalar %v", vector, scalar)
	}
	// A profile that names the pure-Go tiles is charged the scalar column
	// whatever the host's default tiles are.
	pureGo := phy.DecodeProfile{NoVectorFrontEnd: true}
	if vec.WithProfile(pureGo).AllocCost(a) != scalar || m.WithProfile(pureGo).AllocCost(a) != scalar {
		t.Fatal("NoVectorFrontEnd is not charged the pure-Go tile coefficients")
	}
	// The vector coefficients only apply to the fused front-end: the staged
	// model must be indifferent to them.
	if vec.WithProfile(profStaged).AllocCost(a) != m.WithProfile(profStaged).AllocCost(a) {
		t.Fatal("FrontEndVector changed the staged front-end cost")
	}
	// A zero vector coefficient must fail validation.
	bad := m
	bad.FusedVecPerRE16QAM = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero FusedVecPerRE16QAM accepted")
	}
}

func TestCostModelBatchSelection(t *testing.T) {
	m := DefaultCostModel()
	a := frame.Allocation{RNTI: 1, FirstPRB: 0, NumPRB: 100, MCS: 27, SNRdB: phy.MCS(27).OperatingSNR()}
	width := func(w int) CostModel { return m.WithProfile(phy.DecodeProfile{Batch: w}) }
	// The zero width is the int16 kernel's own, 8.
	if m.AllocCost(a) != width(8).AllocCost(a) {
		t.Fatal("zero batch width does not charge the int16 kernel's width 8")
	}
	// Cost must fall monotonically with the lockstep width from the scalar
	// per-block decode (width 1) to the width-8 calibration point.
	prev := width(1).AllocCost(a)
	for _, w := range []int{2, 4, 8} {
		c := width(w).AllocCost(a)
		if c >= prev {
			t.Fatalf("width %d cost %v not below previous %v", w, c, prev)
		}
		prev = c
	}
	// A single-block transport block never rides a lockstep pass: whatever
	// the width, it is charged the scalar int16 coefficient.
	one := frame.Allocation{RNTI: 1, NumPRB: 4, MCS: 10, SNRdB: phy.MCS(10).OperatingSNR()}
	if m.AllocCost(one) != width(1).AllocCost(one) {
		t.Fatal("single-block cost depends on the lockstep width")
	}
	// A ragged span is charged for its occupancy: 3 blocks (MCS 28, 25 PRB)
	// in one width-8 pass cost more per block than a full span, less than
	// three scalar decodes.
	ragged := frame.Allocation{RNTI: 1, NumPRB: 25, MCS: 28, SNRdB: phy.MCS(28).OperatingSNR()}
	if r, sc := m.AllocCost(ragged), width(1).AllocCost(ragged); r >= sc {
		t.Fatalf("ragged 3-block span %v not below three scalar decodes %v", r, sc)
	}
	if got, full := m.spanUnits(3)/3, m.spanUnits(8)/8; got <= full {
		t.Fatalf("per-block cost of a 3-lane span %v not above a full span's %v", got, full)
	}
	// A zero batch coefficient is invalid (invalid profiles are
	// dataplane's TestInvalidProfileRejectedEverywhere).
	bad := m
	bad.TurboPerBitIterI16Batch = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero TurboPerBitIterI16Batch accepted")
	}
}

// TestCostModelGoldenGrid pins every profile's price on DefaultCostModel to
// the answers recorded before the model's four selection fields became one
// Profile (testdata/costmodel_grid.txt): 100-PRB costs to the nanosecond over
// kernel × front-end × width × tile kernels × MCS.
func TestCostModelGoldenGrid(t *testing.T) {
	f, err := os.Open("testdata/costmodel_grid.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kernels := map[string]phy.DecodeKernel{"int16": phy.KernelInt16, "float32": phy.KernelFloat32}
	frontEnds := map[string]phy.FrontEnd{"fused": phy.FrontEndFused, "staged": phy.FrontEndStaged}
	points := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		var kernel, frontEnd, tiles string
		var batch, mcs int
		var want int64
		if _, err := fmt.Sscan(line, &kernel, &frontEnd, &batch, &tiles, &mcs, &want); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		// The recorded model ran on a host whose default tiles are the
		// vector ones; the pure-Go column is the profile that opts out.
		m := DefaultCostModel()
		m.FrontEndVector = true
		m = m.WithProfile(phy.DecodeProfile{
			Kernel: kernels[kernel], FrontEnd: frontEnds[frontEnd], Batch: batch,
			NoVectorFrontEnd: tiles == "pure-go",
		})
		if err := m.Validate(); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		a := frame.Allocation{RNTI: 1, NumPRB: 100, MCS: phy.MCS(mcs), SNRdB: phy.MCS(mcs).OperatingSNR()}
		if got := m.AllocCost(a).Nanoseconds(); got != want {
			t.Errorf("%q: got %d ns", line, got)
		}
		// A model that never saw a vector host prices the pure-Go column
		// for either profile.
		if tiles == "pure-go" {
			m.FrontEndVector = false
			m.Profile.NoVectorFrontEnd = false
			if got := m.AllocCost(a).Nanoseconds(); got != want {
				t.Errorf("%q: uncalibrated AllocCost %d ns", line, got)
			}
		}
		points++
	}
	if points != 96 {
		t.Fatalf("read %d grid points, want 96", points)
	}
}

func TestCalibrateMeasuresBothKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("measured calibration")
	}
	m, err := Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if m.TurboPerBitIterI16 <= 0 || m.TurboPerBitIterI16 >= m.TurboPerBitIter {
		t.Fatalf("calibrated int16 turbo coefficient %.3g not below float32 %.3g",
			m.TurboPerBitIterI16, m.TurboPerBitIter)
	}
	if m.TurboPerBitIterI16Batch <= 0 || m.TurboPerBitIterI16Batch >= m.TurboPerBitIterI16 {
		t.Fatalf("calibrated width-8 batch coefficient %.3g not below scalar int16 %.3g",
			m.TurboPerBitIterI16Batch, m.TurboPerBitIterI16)
	}
	// The default-path fused coefficient (vector tiles on AVX2 hosts,
	// scalar tiles otherwise — what the data plane's default actually
	// runs) must come out positive and below the staged per-RE totals it
	// replaces (demod + per-RE share of the descramble/dematch bit costs).
	// The scalar-tile column only gets a loose sanity bound: under the
	// race detector the pure-Go fused pass carries the same instrumented
	// memory traffic as the staged sweeps and the gap closes to noise.
	for _, c := range []struct {
		name                  string
		scalarFused, vecFused float64
		demod                 float64
		bits                  float64 // coded bits per RE
	}{
		{"qpsk", m.FusedPerREQPSK, m.FusedVecPerREQPSK, m.DemodPerREQPSK, 2},
		{"16qam", m.FusedPerRE16QAM, m.FusedVecPerRE16QAM, m.DemodPerRE16QAM, 4},
		{"64qam", m.FusedPerRE64QAM, m.FusedVecPerRE64QAM, m.DemodPerRE64QAM, 6},
	} {
		staged := c.demod + c.bits*(m.DescramblePerBit+m.DematchPerBit)
		def := c.scalarFused
		if phy.FrontEndAVX2() {
			def = c.vecFused
		}
		if def <= 0 || def >= staged {
			t.Fatalf("calibrated fused %s coefficient %.3g not below staged %.3g",
				c.name, def, staged)
		}
		if c.scalarFused <= 0 || c.scalarFused >= 1.5*staged {
			t.Fatalf("calibrated scalar fused %s coefficient %.3g implausible against staged %.3g",
				c.name, c.scalarFused, staged)
		}
	}
	// The vector column must be populated, and the calibrated model must
	// record the host's default tiles. On AVX2 hosts the tile
	// kernels must beat the scalar tiles (generous slack for CI noise).
	for _, c := range []struct {
		name           string
		scalar, vector float64
	}{
		{"qpsk", m.FusedPerREQPSK, m.FusedVecPerREQPSK},
		{"16qam", m.FusedPerRE16QAM, m.FusedVecPerRE16QAM},
		{"64qam", m.FusedPerRE64QAM, m.FusedVecPerRE64QAM},
	} {
		if c.vector <= 0 {
			t.Fatalf("calibrated vector fused %s coefficient %.3g not positive", c.name, c.vector)
		}
		if phy.FrontEndAVX2() && c.vector >= 1.2*c.scalar {
			t.Fatalf("calibrated vector fused %s coefficient %.3g not below scalar %.3g on an AVX2 host",
				c.name, c.vector, c.scalar)
		}
	}
	if m.FrontEndVector != phy.FrontEndAVX2() {
		t.Fatalf("calibrated FrontEndVector %v is not phy.FrontEndAVX2() %v",
			m.FrontEndVector, phy.FrontEndAVX2())
	}
}
