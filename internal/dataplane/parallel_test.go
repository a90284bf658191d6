package dataplane

import (
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
)

func TestDecodeWorkersManySubframes(t *testing.T) {
	// Race-detector target for the pool composition: several pool workers,
	// each decoding its tasks' code blocks on its own goroutine, decoding a
	// stream of subframes concurrently.
	pool := testPool(t, Config{Workers: 3, Policy: EDF, DeadlineScale: 1000})
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
