package dataplane

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
)

// fadingEndToEnd runs one subframe through a fading channel and returns the
// decode results keyed by RNTI.
func fadingEndToEnd(t *testing.T, profile phy.MultipathProfile, equalize bool, snrBoost float64) map[frame.RNTI]*Task {
	t.Helper()
	cfg := testCellConfig()
	pool := testPool(t, Config{Workers: 2, Policy: EDF, DeadlineScale: 1000})
	rrh, err := NewRRHEmulator(cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	fading, err := phy.NewChannelResponse(profile, cfg.Bandwidth, 23)
	if err != nil {
		t.Fatal(err)
	}
	rrh.Fading = fading
	cp, err := NewCellProcessor(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	cp.EstimateChannel = equalize

	work := frame.SubframeWork{
		Cell: 1, TTI: 5,
		Allocations: []frame.Allocation{
			{RNTI: 300, FirstPRB: 0, NumPRB: 3, MCS: 8, SNRdB: phy.MCS(8).OperatingSNR() + snrBoost},
			{RNTI: 301, FirstPRB: 3, NumPRB: 3, MCS: 12, SNRdB: phy.MCS(12).OperatingSNR() + snrBoost},
		},
	}
	payloads, err := rrh.RandomPayloads(work)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rrh.Emit(work, payloads)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[frame.RNTI]*Task)
	done := make(chan *Task, len(work.Allocations))
	err = cp.IngestSubframe(samples, work, func(tk *Task) {
		// Payload aliases the worker's processor, which the next task —
		// whatever its shape — decodes into.
		tk.Payload = append([]byte(nil), tk.Payload...)
		done <- tk
	})
	if err != nil {
		t.Fatal(err)
	}
	for range work.Allocations {
		tk := <-done
		results[tk.Alloc.RNTI] = tk
		if tk.Err == nil {
			for i, a := range work.Allocations {
				if a.RNTI == tk.Alloc.RNTI && !bytes.Equal(tk.Payload, payloads[i]) {
					t.Fatalf("rnti %d: wrong payload decoded", a.RNTI)
				}
			}
		}
	}
	if equalize && cp.EstimateTime <= 0 {
		t.Fatal("estimation time not accounted")
	}
	return results
}

func TestFadingWithEqualizationDecodes(t *testing.T) {
	// EPA fading + pilot-based equalization at a healthy SNR margin must
	// decode both UEs.
	results := fadingEndToEnd(t, phy.ProfileEPA, true, 8)
	for rnti, tk := range results {
		if tk.Err != nil {
			t.Fatalf("rnti %d failed under equalized fading: %v", rnti, tk.Err)
		}
	}
}

func TestFadingWithoutEqualizationFails(t *testing.T) {
	// The same channel without equalization must break at least one UE —
	// rotated constellations are undecodable. This is the control that
	// proves the estimator is doing real work.
	results := fadingEndToEnd(t, phy.ProfileEVA, false, 8)
	failures := 0
	for _, tk := range results {
		if errors.Is(tk.Err, phy.ErrCRC) {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("un-equalized fading decoded cleanly; channel not applied?")
	}
}

func TestFlatFadingMatchesAWGNPath(t *testing.T) {
	// A flat (single-tap) channel with equalization behaves like plain
	// AWGN: both UEs decode.
	results := fadingEndToEnd(t, phy.ProfileFlat, true, 6)
	for rnti, tk := range results {
		if tk.Err != nil {
			t.Fatalf("rnti %d failed under flat fading: %v", rnti, tk.Err)
		}
	}
}

func TestEqualizationHarmlessWithoutFading(t *testing.T) {
	// Equalization enabled against an identity channel must not hurt: the
	// pilots estimate Ĥ ≈ 1.
	cfg := testCellConfig()
	pool := testPool(t, Config{Workers: 1, Policy: EDF, DeadlineScale: 1000})
	rrh, _ := NewRRHEmulator(cfg, 31)
	cp, _ := NewCellProcessor(cfg, pool)
	cp.EstimateChannel = true
	work := frame.SubframeWork{
		Cell: 1, TTI: 2,
		Allocations: []frame.Allocation{
			{RNTI: 1, FirstPRB: 0, NumPRB: 4, MCS: 10, SNRdB: phy.MCS(10).OperatingSNR() + 5},
		},
	}
	payloads, _ := rrh.RandomPayloads(work)
	samples, err := rrh.Emit(work, payloads)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Task, 1)
	err = cp.IngestSubframe(samples, work, func(tk *Task) {
		// Payload aliases the worker's processor, which the next task —
		// whatever its shape — decodes into.
		tk.Payload = append([]byte(nil), tk.Payload...)
		done <- tk
	})
	if err != nil {
		t.Fatal(err)
	}
	tk := <-done
	if tk.Err != nil {
		t.Fatalf("equalization against identity channel broke decode: %v", tk.Err)
	}
}

// equalizeRow is the whole-row oracle: it divides row by the channel
// estimate in place, clamping an estimate below |Ĥ|² = 1e-3 up to that
// magnitude as the receiver does, and returns the mean noise enhancement
// mean(1/|Ĥ|²).
func equalizeRow(row, est []complex128) float64 {
	const floor = 1e-3
	var enh float64
	for k, h := range est {
		mag2 := real(h)*real(h) + imag(h)*imag(h)
		if mag2 < floor {
			h *= complex(math.Sqrt(floor)/(cmplx.Abs(h)+1e-12), 0)
			mag2 = floor
		}
		row[k] /= h
		enh += 1 / mag2
	}
	return enh / float64(len(row))
}

func TestEqualizeAllocationsMatchesWholeGridOracle(t *testing.T) {
	// The ingest path equalizes only the scheduled subcarrier ranges, with
	// one weight per subcarrier and cached pilot rows. Every allocation's REs
	// and the noise enhancement must match dividing the whole grid by the
	// estimate row by row (equalizeRow), on an EPA realisation with a fade
	// below the estimator's floor inside an allocation.
	cfg := testCellConfig()
	pool := testPool(t, Config{Workers: 1, Policy: EDF, DeadlineScale: 1000})
	cp, err := NewCellProcessor(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	fading, err := phy.NewChannelResponse(phy.ProfileEPA, cfg.Bandwidth, 41)
	if err != nil {
		t.Fatal(err)
	}
	const fadedSC = 2*phy.SubcarriersPerPRB + 5
	fading.H[fadedSC] *= 1e-3
	allocs := []frame.Allocation{
		{RNTI: 1, FirstPRB: 1, NumPRB: 3, MCS: 4, SNRdB: 10},
		{RNTI: 2, FirstPRB: cfg.Bandwidth.PRB() - 2, NumPRB: 2, MCS: 4, SNRdB: 10},
	}
	sc := cp.grid.Subcarriers()
	oracle, err := frame.NewGrid(cfg.Bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	// TTIs 5 and 15 share a subframe index (the second reads the pilot
	// cache); 6 does not.
	for _, tti := range []frame.TTI{5, 15, 6} {
		for _, row := range gridRows(cp.grid) {
			for i := range row {
				row[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		cp.grid.PlacePilots(cfg.PCI, tti)
		for l := 0; l < phy.SymbolsPerSubframe; l++ {
			row, _ := cp.grid.Symbol(l)
			if err := fading.Apply(row); err != nil {
				t.Fatal(err)
			}
		}
		for l, row := range gridRows(cp.grid) {
			copy(gridRows(oracle)[l], row)
		}

		est := make([]complex128, sc)
		rowEst := make([]complex128, sc)
		pilots := make([]complex128, sc)
		refs := frame.ReferenceSymbolIndices()
		for _, l := range refs {
			row, _ := oracle.Symbol(l)
			frame.Pilots(pilots, cfg.PCI, tti, l)
			if err := phy.EstimateLS(rowEst, row, pilots); err != nil {
				t.Fatal(err)
			}
			for k := range est {
				est[k] += rowEst[k] / complex(float64(len(refs)), 0)
			}
		}
		if h := est[fadedSC]; real(h)*real(h)+imag(h)*imag(h) >= 1e-3 {
			t.Fatalf("tti %d: subcarrier %d estimate %v is not below the floor", tti, fadedSC, h)
		}
		var wantEnh float64
		for l := 0; l < phy.SymbolsPerSubframe; l++ {
			if frame.IsReferenceSymbol(l) {
				continue
			}
			row, _ := oracle.Symbol(l)
			wantEnh = equalizeRow(row, est)
		}

		enh, err := cp.equalizeSubframe(frame.SubframeWork{Cell: cfg.ID, TTI: tti, Allocations: allocs})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(enh-wantEnh) > 1e-12*wantEnh {
			t.Fatalf("tti %d: noise enhancement %v, oracle %v", tti, enh, wantEnh)
		}
		for _, a := range allocs {
			got := make([]complex128, a.NumPRB*phy.DataREsPerPRB)
			want := make([]complex128, len(got))
			if err := cp.grid.Extract(got, a); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Extract(want, a); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if cmplx.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("tti %d rnti %d RE %d: %v, oracle %v", tti, a.RNTI, i, got[i], want[i])
				}
			}
		}
	}
}
