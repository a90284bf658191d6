package experiments

import (
	"strings"
	"testing"

	"pran/internal/cluster"
	"pran/internal/phy"
	"pran/internal/soak"
)

// These tests run the experiments driven by a model, a simulation or a
// seeded trace in quick mode and assert the *shapes* PRAN reports — who
// wins, by roughly what factor, where the knees fall (EXPERIMENTS.md). None
// reads the wall clock. CI gates the wall-clock experiments (E1, E2, E9,
// E14, E15, E16, E19, E20) with jq lines on their `pran-bench -quick -json`
// output; E5's claims are recorded in EXPERIMENTS.md as not reproduced on
// the default path and are not gated.

func TestE3DiversityShapes(t *testing.T) {
	r, err := E3TraceDiversity(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range []string{"office", "residential", "mixed", "transport"} {
		if r.Metrics[cls+"_ptm"] < 1.8 {
			t.Fatalf("%s peak-to-mean %.2f too flat", cls, r.Metrics[cls+"_ptm"])
		}
	}
	// Residential must be visibly decorrelated from office.
	if r.Metrics["residential_corr_office"] > 0.8 {
		t.Fatalf("office/residential correlation %.2f too high for pooling", r.Metrics["residential_corr_office"])
	}
}

func TestE4PoolingGainShapes(t *testing.T) {
	r, err := E4PoolingGain(true)
	if err != nil {
		t.Fatal(err)
	}
	// The headline: pooling beats per-cell static provisioning clearly at
	// 50 cells, and the gain grows with scale. On the default cost model
	// the mean-gain floor is 1.4 (measured 1.59): with decoding several
	// times cheaper than on the float32 model, the load-independent
	// per-cell FFT floor is most of a cell's demand and the ratio
	// compresses — while the cores it is a ratio of fall 2.8× (470 → 165
	// static, 226 → 104 pooled mean). The float32 model keeps the 1.8
	// floor (measured 2.08).
	if r.Metrics["gain_mean_50cells"] < 1.4 {
		t.Fatalf("mean pooling gain at 50 cells %.2f < 1.4", r.Metrics["gain_mean_50cells"])
	}
	ref, err := e4PoolingGain(true, cluster.DefaultCostModel().WithProfile(phy.DecodeProfile{Kernel: phy.KernelFloat32}))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Metrics["gain_mean_50cells"] < 1.8 {
		t.Fatalf("float32 model: mean pooling gain at 50 cells %.2f < 1.8", ref.Metrics["gain_mean_50cells"])
	}
	if ref.Metrics["gain_peak_50cells"] < 1.2 {
		t.Fatalf("float32 model: peak pooling gain at 50 cells %.2f < 1.2", ref.Metrics["gain_peak_50cells"])
	}
	if r.Metrics["gain_peak_50cells"] < 1.2 {
		t.Fatalf("peak pooling gain at 50 cells %.2f < 1.2", r.Metrics["gain_peak_50cells"])
	}
	if r.Metrics["gain_peak_50cells"] < r.Metrics["gain_peak_10cells"]-0.1 {
		t.Fatalf("gain shrank with scale: %v", r.Metrics)
	}
}

func TestE6PredictiveWins(t *testing.T) {
	r, err := E6Scaling(true)
	if err != nil {
		t.Fatal(err)
	}
	pred := r.Metrics["predictive_total_unserved"]
	reac := r.Metrics["reactive_total_unserved"]
	if pred > reac {
		t.Fatalf("predictive unserved %.3f worse than reactive %.3f", pred, reac)
	}
}

func TestE7FronthaulShapes(t *testing.T) {
	r, err := E7Fronthaul(true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["bfp_ratio"] < 1.4 {
		t.Fatalf("BFP ratio %.2f below 1.4", r.Metrics["bfp_ratio"])
	}
	if r.Metrics["bfp_evm"] > 0.01 {
		t.Fatalf("BFP EVM %.4f above 1%%", r.Metrics["bfp_evm"])
	}
	// 20 MHz 2-antenna raw CPRI ≈ 2.5 Gb/s.
	raw := r.Metrics["raw_gbps_20mhz_2ant"]
	if raw < 2 || raw > 3 {
		t.Fatalf("raw CPRI %.2f Gb/s implausible", raw)
	}
}

func TestE8FailoverShapes(t *testing.T) {
	r, err := E8Failover(true)
	if err != nil {
		t.Fatal(err)
	}
	hot := r.Metrics["hot-standby_outage_ms"]
	cold := r.Metrics["cold-restart_outage_ms"]
	if hot >= 1000 {
		t.Fatalf("hot-standby outage %v ms not sub-second", hot)
	}
	if cold < 10*hot {
		t.Fatalf("cold restart %v ms not ≫ hot standby %v ms", cold, hot)
	}
	if r.Metrics["hot-standby_lost_subframes"] <= 0 {
		t.Fatal("hot standby lost no subframes at all — detection delay unmodelled?")
	}
}

func TestE10HeadroomShapes(t *testing.T) {
	r, err := E10HeadroomAblation(true)
	if err != nil {
		t.Fatal(err)
	}
	// Gain declines with headroom; deficits decline with headroom.
	if r.Metrics["gain_mean_h0"] < r.Metrics["gain_mean_h50"] {
		t.Fatalf("gain should fall with headroom: %v", r.Metrics)
	}
	if r.Metrics["deficit_bins_h0"] < r.Metrics["deficit_bins_h50"] {
		t.Fatalf("deficits should fall with headroom: %v", r.Metrics)
	}
	if r.Metrics["deficit_bins_h0"] == 0 {
		t.Fatal("zero-headroom pool never starved — ablation shows nothing")
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "EX", Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}, Notes: []string{"n"}}
	s := r.String()
	if !strings.Contains(s, "EX") || !strings.Contains(s, "note: n") {
		t.Fatalf("render: %q", s)
	}
}

// TestE20SoakResultShape checks the soak-report → experiment-table
// conversion on a fabricated report, so the shape is covered without paying
// the soak's wall clock here (the live run is covered by internal/soak's
// smoke test and the E20 CI gates).
func TestE20SoakResultShape(t *testing.T) {
	rep := &soak.Report{
		Seed: 7, Cells: 8, Agents: 2,
		WallSeconds: 22, SimSeconds: 160,
		TrafficEvents: []string{"flash_crowd", "mobility_wave", "regional_surge"},
		Windows:       make([]soak.WindowReport, 10),
		Chaos:         []soak.ChaosRecord{{Kind: "crash_restart", DetectionMS: 2000, MTTRMS: 2500}},
		Totals:        soak.Totals{Completed: 900, Misses: 10, OnTime: 890, MissRate: 0.011, OnTimeFrac: 0.98, MaxDegrade: 2},
		Recovered:     true,
		SLOs: []soak.SLOResult{
			{Name: "deadline_miss_rate", Value: 0.011, Limit: 0.10, Pass: true},
			{Name: "lost_cells", Value: 0, Limit: 0, Pass: true},
		},
		Pass: true,
	}
	r := e20Result(rep)
	if r.ID != "E20" || len(r.Rows) != len(rep.SLOs) || len(r.Header) != len(r.Rows[0]) {
		t.Fatalf("table malformed: %+v", r)
	}
	if r.Metrics["pass"] != 1 || r.Metrics["deadline_miss_rate"] != 0.011 {
		t.Fatalf("metrics: %v", r.Metrics)
	}
	for _, m := range []string{"miss_rate", "on_time_frac", "lost_cells", "sim_seconds", "windows", "chaos_actions", "max_degrade"} {
		if _, ok := r.Metrics[m]; !ok {
			t.Fatalf("metric %q missing", m)
		}
	}
	if !strings.Contains(r.String(), "pran-soak -quick -seed 7") {
		t.Fatalf("replay hint missing:\n%s", r.String())
	}
	rep.Pass = false
	rep.SLOs[0].Pass = false
	if r2 := e20Result(rep); r2.Metrics["pass"] != 0 || !strings.Contains(r2.String(), "NO") {
		t.Fatal("failing report must surface pass=0 and a NO row")
	}
}

// TestSeedFor checks the base-seed plumbing: the default base is the
// identity (committed baselines stay bit-identical) and other bases shift
// every derived seed deterministically.
func TestSeedFor(t *testing.T) {
	defer SetBaseSeed(1)
	SetBaseSeed(1)
	if got := seedFor(1900); got != 1900 {
		t.Fatalf("default base must pass through: %d", got)
	}
	SetBaseSeed(7)
	a, b := seedFor(1900), seedFor(1900)
	if a == 1900 || a != b {
		t.Fatalf("shifted base not deterministic: %d %d", a, b)
	}
	if seedFor(1900) == seedFor(1901) {
		t.Fatal("distinct locals collided")
	}
	if BaseSeed() != 7 {
		t.Fatalf("BaseSeed = %d", BaseSeed())
	}
}
