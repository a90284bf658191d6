package baseline

import (
	"errors"
	"math"
	"testing"

	"pran/internal/cluster"
	"pran/internal/phy"
	"pran/internal/traffic"
)

func TestValidation(t *testing.T) {
	if _, err := PerCellStaticCores(nil, 0); !errors.Is(err, ErrBadTraces) {
		t.Fatal("nil traces accepted")
	}
	if _, err := PerCellStaticCores([][]float64{{}}, 0); !errors.Is(err, ErrBadTraces) {
		t.Fatal("empty trace accepted")
	}
	if _, err := AggregateTrace([][]float64{{1, 2}, {1}}); !errors.Is(err, ErrBadTraces) {
		t.Fatal("ragged traces accepted")
	}
	if _, err := StaticPoolCores([][]float64{{1}, {1, 2}}, 0); err == nil {
		t.Fatal("ragged traces accepted by pool sizing")
	}
	if _, err := PRANPooledCores(nil, 0, 1); err == nil {
		t.Fatal("nil traces accepted by pooled sizing")
	}
}

func TestKnownArithmetic(t *testing.T) {
	// Two anti-correlated cells: each peaks at 2 cores but never together.
	a := []float64{2, 0.2, 0.2, 2}
	b := []float64{0.2, 2, 2, 0.2}
	traces := [][]float64{a, b}

	static, err := PerCellStaticCores(traces, 0)
	if err != nil {
		t.Fatal(err)
	}
	if static != 4 {
		t.Fatalf("static %d, want 4", static)
	}
	oracle, err := OracleCores(traces)
	if err != nil {
		t.Fatal(err)
	}
	if oracle != 3 { // aggregate peak 2.2 → 3
		t.Fatalf("oracle %d, want 3", oracle)
	}
	agg, _ := AggregateTrace(traces)
	if agg[0] != 2.2 || agg[1] != 2.2 {
		t.Fatalf("aggregate %v", agg)
	}
	pool, err := StaticPoolCores(traces, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if pool != 4 { // 2.2 × 1.5 = 3.3 → 4
		t.Fatalf("static pool %d, want 4", pool)
	}
}

func TestPooledElasticity(t *testing.T) {
	// Demand steps up then down; the elastic pool must follow up instantly
	// and down with lag.
	tr := [][]float64{{1, 1, 5, 5, 1, 1, 1, 1}}
	res, err := PRANPooledCores(tr, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakCores != 5 {
		t.Fatalf("peak %d", res.PeakCores)
	}
	// Samples 0,1 hold 1 core; 2,3 hold 5; 4,5 still ≥ 5 (lag window of 3
	// covers indices 2,3); 6 drops.
	want := []int{1, 1, 5, 5, 5, 5, 1, 1}
	for i, w := range want {
		if res.CoreSamples[i] != w {
			t.Fatalf("sample %d: %d, want %d (%v)", i, res.CoreSamples[i], w, res.CoreSamples)
		}
	}
	if res.MeanCores <= 1 || res.MeanCores >= 5 {
		t.Fatalf("mean %v", res.MeanCores)
	}
}

func TestPooledNeverBelowOne(t *testing.T) {
	tr := [][]float64{{0, 0, 0}}
	res, err := PRANPooledCores(tr, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.CoreSamples {
		if c < 1 {
			t.Fatal("pool dropped below one core")
		}
	}
}

func TestMultiplexingGain(t *testing.T) {
	if MultiplexingGain(10, 5) != 2 {
		t.Fatal("gain arithmetic")
	}
	if MultiplexingGain(10, 0) != 0 {
		t.Fatal("zero pool")
	}
}

// TestDiurnalPoolingGainShape is the unit-level preview of experiment E4:
// with a realistic diurnal mix, pooling must beat per-cell static
// provisioning by a visible factor.
//
// The mean-gain floor is 1.8 on the float32 reference model and 1.4 on the
// default (int16 lockstep) model:
// decoding is several times cheaper there, the fixed per-cell FFT floor
// outweighs the load-dependent part of a cell's demand, and the ratio
// compresses (see TestE4PoolingGainShapes).
func TestDiurnalPoolingGainShape(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		testDiurnalPoolingGain(t, cluster.DefaultCostModel().WithProfile(phy.DecodeProfile{Kernel: phy.KernelFloat32}), 1.8)
	})
	t.Run("default", func(t *testing.T) { testDiurnalPoolingGain(t, cluster.DefaultCostModel(), 1.4) })
}

func testDiurnalPoolingGain(t *testing.T, model cluster.CostModel, meanFloor float64) {
	const nCells = 30
	classes := traffic.StandardMix(nCells)
	traces := make([][]float64, nCells)
	for i := 0; i < nCells; i++ {
		prof := traffic.DefaultProfile(classes[i])
		util, err := traffic.DayTrace(prof, int64(i), 60)
		if err != nil {
			t.Fatal(err)
		}
		demand := make([]float64, len(util))
		for j, u := range util {
			demand[j] = model.UtilizationDemand(phy.BW20MHz, 2, u, phy.MCSForSNR(prof.SNRMeanDB), prof.SNRMeanDB)
		}
		traces[i] = demand
	}
	static, err := PerCellStaticCores(traces, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := PRANPooledCores(traces, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := OracleCores(traces)
	if err != nil {
		t.Fatal(err)
	}
	gainPeak := MultiplexingGain(static, float64(pooled.PeakCores))
	gainMean := MultiplexingGain(static, pooled.MeanCores)
	if gainPeak < 1.2 {
		t.Fatalf("peak pooling gain %.2f below 1.2 — diversity lost", gainPeak)
	}
	if gainMean < meanFloor {
		t.Fatalf("mean pooling gain %.2f below %.1f", gainMean, meanFloor)
	}
	if pooled.PeakCores < oracle {
		t.Fatalf("elastic pool %d below oracle %d — impossible", pooled.PeakCores, oracle)
	}
	if math.IsNaN(gainPeak) || math.IsInf(gainPeak, 0) {
		t.Fatal("gain not finite")
	}
}
