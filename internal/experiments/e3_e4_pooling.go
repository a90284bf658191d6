package experiments

import (
	"fmt"
	"math"

	"pran/internal/baseline"
	"pran/internal/cluster"
	"pran/internal/phy"
	"pran/internal/traffic"
)

// E3TraceDiversity reconstructs the load-diversity figure: per-class diurnal
// behaviour and the cross-class (anti-)correlation pooling exploits.
// Expected shape: every class has peak-to-mean ≥ ~2; office and residential
// peaks are hours apart; their correlation is well below 1.
func E3TraceDiversity(quick bool) (Result, error) {
	step := 60.0
	if quick {
		step = 300
	}
	res := Result{
		ID:      "E3",
		Title:   "Per-cell load diversity over 24 h by cell class (synthetic traces)",
		Header:  []string{"class", "peak-hour", "peak-to-mean", "mean-util", "corr-vs-office"},
		Metrics: map[string]float64{},
	}
	classes := []traffic.Class{traffic.Office, traffic.Residential, traffic.Mixed, traffic.Transport}
	var officeTrace []float64
	traces := map[traffic.Class][]float64{}
	for _, c := range classes {
		tr, err := traffic.DayTrace(traffic.DefaultProfile(c), int64(c)*17+1, step)
		if err != nil {
			return res, err
		}
		traces[c] = tr
		if c == traffic.Office {
			officeTrace = tr
		}
	}
	for _, c := range classes {
		tr := traces[c]
		mean := 0.0
		for _, v := range tr {
			mean += v
		}
		mean /= float64(len(tr))
		ptm := traffic.PeakToMean(tr)
		corr := correlation(tr, officeTrace)
		res.Rows = append(res.Rows, []string{
			c.String(),
			fmt.Sprintf("%.1f", c.PeakHour()),
			f(ptm),
			f(mean),
			f(corr),
		})
		res.Metrics[c.String()+"_ptm"] = ptm
		if c != traffic.Office {
			res.Metrics[c.String()+"_corr_office"] = corr
		}
	}
	res.Notes = append(res.Notes, "operator traces are proprietary; the generator reproduces their published statistics (diurnal swing, class-offset peaks, short-term burstiness)")
	return res, nil
}

// correlation returns the Pearson correlation of two equal-length series.
func correlation(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// cellDemandTraces builds per-cell compute-demand traces (reference-core
// fractions) for n cells over a day.
func cellDemandTraces(n int, stepSeconds float64, model cluster.CostModel) ([][]float64, error) {
	classes := traffic.StandardMix(n)
	traces := make([][]float64, n)
	for i := 0; i < n; i++ {
		prof := traffic.DefaultProfile(classes[i])
		util, err := traffic.DayTrace(prof, int64(i)*311+7, stepSeconds)
		if err != nil {
			return nil, err
		}
		mcs := phy.MCSForSNR(prof.SNRMeanDB)
		demand := make([]float64, len(util))
		for j, u := range util {
			demand[j] = model.UtilizationDemand(phy.BW20MHz, 2, u, mcs, prof.SNRMeanDB)
		}
		traces[i] = demand
	}
	return traces, nil
}

// E4PoolingGain reconstructs PRAN's headline table: compute required under
// per-cell peak provisioning vs an elastic shared pool, as cell count grows.
// Expected shape: pooling needs clearly fewer cores than per-cell static by
// ~50 cells, and the mean-usage gain is larger still. On the default cost
// model (int16 lockstep decode) the load-independent per-cell FFT floor is
// most of a cell's demand, so the ratios sit near 1.4 / 1.6.
func E4PoolingGain(quick bool) (Result, error) {
	model := cluster.DefaultCostModel()
	cellCounts := []int{10, 20, 50, 100, 200}
	step := 60.0
	if quick {
		cellCounts = []int{10, 50}
		step = 300
	}
	const headroom = 0.2
	res := Result{
		ID:      "E4",
		Title:   "Cores required: per-cell static vs PRAN elastic pool vs oracle",
		Header:  []string{"cells", "static", "static-pool", "pran-peak", "pran-mean", "oracle", "gain-peak", "gain-mean"},
		Metrics: map[string]float64{},
	}
	lag := int(math.Max(1, 300/step)) // ≈5 min scale-down lag
	for _, n := range cellCounts {
		traces, err := cellDemandTraces(n, step, model)
		if err != nil {
			return res, err
		}
		static, err := baseline.PerCellStaticCores(traces, headroom)
		if err != nil {
			return res, err
		}
		staticPool, err := baseline.StaticPoolCores(traces, headroom)
		if err != nil {
			return res, err
		}
		pooled, err := baseline.PRANPooledCores(traces, headroom, lag)
		if err != nil {
			return res, err
		}
		oracle, err := baseline.OracleCores(traces)
		if err != nil {
			return res, err
		}
		gainPeak := baseline.MultiplexingGain(static, float64(pooled.PeakCores))
		gainMean := baseline.MultiplexingGain(static, pooled.MeanCores)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", static),
			fmt.Sprintf("%d", staticPool),
			fmt.Sprintf("%d", pooled.PeakCores),
			f(pooled.MeanCores),
			fmt.Sprintf("%d", oracle),
			f(gainPeak),
			f(gainMean),
		})
		res.Metrics[fmt.Sprintf("gain_peak_%dcells", n)] = gainPeak
		res.Metrics[fmt.Sprintf("gain_mean_%dcells", n)] = gainMean
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("headroom %.0f%% on all elastic/static variants; 5-minute scale-down lag on the elastic pool", headroom*100),
		"demands from the cost model charging int16 decode (the default is int16 lockstep) over 20 MHz 2-antenna cells, standard class mix; the per-cell FFT floor (1.26 cores) is load-independent and on the default model the larger part of a cell's demand")
	return res, nil
}
