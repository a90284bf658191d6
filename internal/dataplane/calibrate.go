package dataplane

import (
	"fmt"
	"math"
	"time"

	"pran/internal/phy"
)

// CalibrateDeadlineScale measures how long this host takes to decode a
// fully loaded subframe at the given configuration and returns the
// Config.DeadlineScale at which that decode consumes roughly 60% of the
// scaled HARQ budget — the same compute-to-deadline ratio the paper's
// optimized C stack had against the real 3 ms budget. Experiments that use
// the measured data plane call this once at startup so results are
// comparable across hosts. The measurement decodes on the processor a pool
// worker runs.
func CalibrateDeadlineScale(bw phy.Bandwidth, mcs phy.MCS) (float64, error) {
	nprb := bw.PRB()
	proc, err := phy.NewTransportProcessor(nprb)
	if err != nil {
		return 0, err
	}
	tbs, err := mcs.TransportBlockSize(nprb)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, tbs)
	for i := range payload {
		payload[i] = byte(i % 2)
	}
	snr := mcs.OperatingSNR() + 2
	syms, err := proc.Encode(mcs, nprb, payload, 1, 1, 0, 0)
	if err != nil {
		return 0, err
	}
	rx := make([]complex128, len(syms))
	copy(rx, syms)
	ch := phy.NewAWGNChannel(snr, 4242)
	ch.Apply(rx)
	// Warm up once, then time a few decodes.
	if _, err := proc.Decode(mcs, nprb, rx, ch.N0(), 1, 1, 0, 0, nil); err != nil {
		return 0, fmt.Errorf("dataplane: calibration decode failed: %w", err)
	}
	const reps = 3
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := proc.Decode(mcs, nprb, rx, ch.N0(), 1, 1, 0, 0, nil); err != nil {
			return 0, fmt.Errorf("dataplane: calibration decode failed: %w", err)
		}
	}
	per := time.Since(start) / reps
	scale := float64(per) / (0.6 * float64(HARQBudget))
	return math.Max(scale, 1), nil
}
