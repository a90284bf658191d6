package experiments

import (
	"fmt"
	"math/rand"

	"pran/internal/fronthaul"
	"pran/internal/phy"
)

// E7Fronthaul reconstructs the fronthaul-bandwidth table: per-cell transport
// cost of centralization under raw CPRI, BFP compression, and alternative
// functional splits, with the compression's measured EVM cost. Expected
// shape: raw I/Q is multi-Gb/s but BFP buys ~1.7× at negligible EVM and the
// low-PHY split roughly halves it again; only the MAC split is cheap, and it
// forfeits pooling (compute share column). The table is arithmetic plus one
// fixed-size codec measurement, so quick and full runs are the same.
func E7Fronthaul(bool) (Result, error) {
	res := Result{
		ID:      "E7",
		Title:   "Fronthaul bandwidth per cell: raw CPRI vs compression vs split",
		Header:  []string{"bw", "ant", "raw(Gb/s)", "cpri-opt", "bfp9(Gb/s)", "bfp-evm", "lowphy(Gb/s)", "mac(Gb/s)", "pool-compute"},
		Metrics: map[string]float64{},
	}
	// Measure BFP-9 EVM once on representative OFDM-symbol-scale blocks.
	comp, err := fronthaul.NewBFPCompressor(12, 9)
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(77))
	n := 2048 * 4
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	buf := comp.Compress(nil, in)
	out := make([]complex128, n)
	if _, err := comp.Decompress(out, buf, n); err != nil {
		return res, err
	}
	evm, err := phy.EVM(in, out)
	if err != nil {
		return res, err
	}
	ratio := comp.Ratio(n, fronthaul.DefaultSampleBits)

	type cfg struct {
		bw  phy.Bandwidth
		ant int
	}
	for _, c := range []cfg{{phy.BW10MHz, 1}, {phy.BW10MHz, 2}, {phy.BW20MHz, 2}, {phy.BW20MHz, 4}} {
		// Mean MAC throughput: a busy cell at ~2/3 of MCS-20 peak.
		meanTput := phy.MCS(20).PeakThroughput(c.bw.PRB()) * 0.66
		raw := fronthaul.SplitRFIQ.Rate(c.bw, c.ant, fronthaul.DefaultSampleBits, meanTput)
		low := fronthaul.SplitLowPHY.Rate(c.bw, c.ant, fronthaul.DefaultSampleBits, meanTput)
		mac := fronthaul.SplitMAC.Rate(c.bw, c.ant, fronthaul.DefaultSampleBits, meanTput)
		bfp := raw / ratio
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.0fMHz", c.bw.MHz()),
			fmt.Sprintf("%d", c.ant),
			f(raw / 1e9),
			fmt.Sprintf("%d", fronthaul.CPRIOption(raw)),
			f(bfp / 1e9),
			fmt.Sprintf("%.2f%%", evm*100),
			f(low / 1e9),
			f(mac / 1e9),
			fmt.Sprintf("%.0f%%", fronthaul.SplitRFIQ.PoolComputeShare()*100),
		})
		if c.bw == phy.BW20MHz && c.ant == 2 {
			res.Metrics["raw_gbps_20mhz_2ant"] = raw / 1e9
			res.Metrics["bfp_ratio"] = ratio
			res.Metrics["bfp_evm"] = evm
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("BFP: block 12, 9-bit mantissa, measured ratio %.2fx at %.3f%% EVM", ratio, evm*100),
		"pool-compute column shows the RF-IQ split (100%); LowPHY centralizes 60%, MAC only 10% — the pooling-vs-fronthaul trade")
	return res, nil
}
