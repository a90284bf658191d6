package main

import "time"

// The hosts this benchmark runs on are small virtual machines whose cores
// change speed with what the other tenants do: the same 2048-point FFT was
// seen to take 25 µs for an hour and then anything from 22 to 59 µs, for
// seconds to minutes at a time. A run that lands in a slow spell reads 20 to
// 40 % worse than one that does not, more than any bound in BENCHMARK.json,
// and ten runs of the unchanged program then spread by a quarter of their
// median.
//
// Where the harness runs a workload's critical path on one thread (the two
// closed loops and the control rounds), it therefore takes the host's speed
// along with the measurement: before every cell-subframe or control round
// the load generator runs yardstick(), a fixed piece of arithmetic that
// belongs to the harness, and the times of a section are scaled by
// yardNominal over the section's mean yardstick time. The metrics then read
// as they would on a host that runs the yardstick in yardNominal, which is
// about what this repo's development host does while it is quiet;
// bench.host_speed says how far the run's host was from that. In the same
// noisy hour the scaled rt_slowdown of ten runs spread by 0.05 to 0.06 of its
// median and the unscaled one by 0.25.
//
// The yardstick's 64 KiB do not fit the first-level cache and are cold when
// it runs, as the program's own buffers are after the previous subframe; an
// L1-resident loop followed the program's slowdowns less closely.
const yardNominal = 66 * time.Microsecond

var yardBuf [4096]complex128

// yardstick does a fixed amount of complex arithmetic over 64 KiB and
// returns how long it took.
func yardstick() time.Duration {
	start := time.Now()
	for i := range yardBuf {
		yardBuf[i] = complex(float64(i%13), float64(i%7))
	}
	w := complex(0.999, 0.01)
	for half := len(yardBuf) / 2; half >= 1; half /= 2 {
		for i := 0; i < len(yardBuf); i += 2 * half {
			for j := i; j < i+half; j++ {
				a, b := yardBuf[j], yardBuf[j+half]*w
				yardBuf[j], yardBuf[j+half] = a+b, (a-b)*complex(0.5, 0)
			}
		}
	}
	return time.Since(start)
}
