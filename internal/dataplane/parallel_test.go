package dataplane

import (
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
)

func TestEndToEndDecodeWorkers(t *testing.T) {
	// The full ingest path with intra-task parallelism: payload recovery
	// must be indistinguishable from the serial pool. endToEnd verifies the
	// decoded bits against the transmitted ground truth.
	pool := testPool(t, Config{Workers: 2, DecodeWorkers: 4, Policy: EDF, DeadlineScale: 1000})
	work := frame.SubframeWork{
		Cell: 1, TTI: 42,
		Allocations: []frame.Allocation{
			{RNTI: 100, FirstPRB: 0, NumPRB: 3, MCS: 8, SNRdB: phy.MCS(8).OperatingSNR() + 4},
			{RNTI: 101, FirstPRB: 3, NumPRB: 3, MCS: 12, SNRdB: phy.MCS(12).OperatingSNR() + 4},
		},
	}
	done := endToEnd(t, pool, work)
	if len(done) != 2 {
		t.Fatalf("%d tasks done", len(done))
	}
	for _, tk := range done {
		if tk.Err != nil {
			t.Fatalf("rnti %d: %v", tk.Alloc.RNTI, tk.Err)
		}
		if tk.TurboIterations < 1 {
			t.Fatal("iterations not recorded")
		}
	}
}

func TestDecodeWorkersManySubframes(t *testing.T) {
	// Race-detector target for the pool composition: several pool workers,
	// each fanning code blocks across helpers, decoding a stream of
	// subframes concurrently.
	pool := testPool(t, Config{Workers: 3, DecodeWorkers: 3, Policy: EDF, DeadlineScale: 1000})
	subframes := 6
	if testing.Short() {
		subframes = 2
	}
	for s := 0; s < subframes; s++ {
		work := frame.SubframeWork{
			Cell: 1, TTI: frame.TTI(s),
			Allocations: []frame.Allocation{
				{RNTI: 100, FirstPRB: 0, NumPRB: 4, MCS: 16, SNRdB: phy.MCS(16).OperatingSNR() + 4},
				{RNTI: 101, FirstPRB: 4, NumPRB: 2, MCS: 6, SNRdB: phy.MCS(6).OperatingSNR() + 4},
			},
		}
		done := endToEnd(t, pool, work)
		for _, tk := range done {
			if tk.Err != nil {
				t.Fatalf("subframe %d rnti %d: %v", s, tk.Alloc.RNTI, tk.Err)
			}
		}
	}
}

func TestDecodeWorkersNaiveAllocCloses(t *testing.T) {
	// The GC-pressure ablation builds a fresh parallel processor per task;
	// its resident helpers must be released per task, not leaked. (The race
	// build would also flag use-after-close here.)
	pool := testPool(t, Config{Workers: 1, DecodeWorkers: 2, Policy: EDF, DeadlineScale: 1000, NaiveAlloc: true})
	work := frame.SubframeWork{
		Cell: 1, TTI: 9,
		Allocations: []frame.Allocation{
			{RNTI: 100, FirstPRB: 0, NumPRB: 4, MCS: 10, SNRdB: phy.MCS(10).OperatingSNR() + 4},
		},
	}
	done := endToEnd(t, pool, work)
	if len(done) != 1 || done[0].Err != nil {
		t.Fatalf("naive parallel decode failed: %+v", done)
	}
}

func TestConfigDecodeWorkersValidation(t *testing.T) {
	if err := (Config{Workers: 1, DeadlineScale: 1, DecodeWorkers: -1}).Validate(); err == nil {
		t.Fatal("negative DecodeWorkers accepted")
	}
	if err := (Config{Workers: 1, DeadlineScale: 1, DecodeWorkers: 0}).Validate(); err != nil {
		t.Fatalf("zero DecodeWorkers (= serial) rejected: %v", err)
	}
}

func TestCalibrateDeadlineScaleWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("measured calibration")
	}
	s, err := CalibrateDeadlineScaleWorkers(phy.BW1_4MHz, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s < 1 {
		t.Fatalf("scale %v < 1", s)
	}
}
