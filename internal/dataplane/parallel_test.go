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
	pool := testPool(t, Config{Workers: 2, Decode: phy.DecodeProfile{Workers: 4}, Policy: EDF, DeadlineScale: 1000})
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
	pool := testPool(t, Config{Workers: 3, Decode: phy.DecodeProfile{Workers: 3}, Policy: EDF, DeadlineScale: 1000})
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

func TestConfigDecodeWorkersValidation(t *testing.T) {
	if err := (Config{Workers: 1, DeadlineScale: 1, Decode: phy.DecodeProfile{Workers: -1}}).Validate(); err == nil {
		t.Fatal("negative Decode.Workers accepted")
	}
	if err := (Config{Workers: 1, DeadlineScale: 1}).Validate(); err != nil {
		t.Fatalf("zero Decode.Workers (= serial) rejected: %v", err)
	}
}
