package dataplane

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pran/internal/frame"
	"pran/internal/phy"
)

// dlWork builds a two-UE downlink subframe for the test cell.
func dlWork() frame.SubframeWork {
	return frame.SubframeWork{
		Cell: 1, TTI: 12,
		Allocations: []frame.Allocation{
			{RNTI: 200, FirstPRB: 0, NumPRB: 3, MCS: 9, Dir: phy.Downlink, SNRdB: 20},
			{RNTI: 201, FirstPRB: 3, NumPRB: 3, MCS: 15, Dir: phy.Downlink, SNRdB: 20},
		},
	}
}

func dlPayloads(t *testing.T, work frame.SubframeWork, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, len(work.Allocations))
	for i, a := range work.Allocations {
		tbs, err := a.TransportBlockSize()
		if err != nil {
			t.Fatal(err)
		}
		p := make([]byte, tbs)
		for j := range p {
			p[j] = byte(rng.Intn(2))
		}
		out[i] = p
	}
	return out
}

func TestDownlinkBuildAndReceive(t *testing.T) {
	// The synthesized downlink subframe must be decodable by the UE side:
	// demodulate the time samples back into the grid, extract each
	// allocation, and run the receive chain.
	cfg := testCellConfig()
	dl, err := NewDownlinkProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	work := dlWork()
	payloads := dlPayloads(t, work, 31)
	samples, err := dl.BuildSubframe(work, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if dl.EncodeTime <= 0 {
		t.Fatal("encode time not accounted")
	}

	// UE-side receiver: OFDM demod, extract, decode (noise-free channel).
	ofdm, err := phy.NewOFDMModulator(cfg.Bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := frame.NewGrid(cfg.Bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	fftSize := ofdm.FFTSize()
	for l := 0; l < phy.SymbolsPerSubframe; l++ {
		row, err := grid.Symbol(l)
		if err != nil {
			t.Fatal(err)
		}
		if err := ofdm.Demodulate(row, samples[l*fftSize:(l+1)*fftSize]); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range work.Allocations {
		res := make([]complex128, a.NumPRB*phy.DataREsPerPRB)
		if err := grid.Extract(res, a); err != nil {
			t.Fatal(err)
		}
		proc, err := phy.NewTransportProcessor(a.NumPRB)
		if err != nil {
			t.Fatal(err)
		}
		got, err := proc.Decode(a.MCS, a.NumPRB, res, 1e-4, uint16(a.RNTI), cfg.PCI, work.TTI.Subframe(), int(a.RV), nil)
		if err != nil {
			t.Fatalf("UE %d decode: %v", a.RNTI, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("UE %d payload mismatch", a.RNTI)
		}
	}
}

func TestDownlinkValidation(t *testing.T) {
	dl, err := NewDownlinkProcessor(testCellConfig())
	if err != nil {
		t.Fatal(err)
	}
	work := dlWork()
	if _, err := dl.BuildSubframe(work, nil); err == nil {
		t.Fatal("payload count mismatch accepted")
	}
	bad := work
	bad.Allocations = []frame.Allocation{{RNTI: 1, FirstPRB: 0, NumPRB: 99, MCS: 5}}
	if _, err := dl.BuildSubframe(bad, make([][]byte, 1)); err == nil {
		t.Fatal("invalid allocation accepted")
	}
	if _, err := NewDownlinkProcessor(frame.CellConfig{Bandwidth: phy.Bandwidth(7)}); err == nil {
		t.Fatal("bad cell config accepted")
	}
}

func TestEncodeOnPool(t *testing.T) {
	pool := testPool(t, Config{Workers: 2, Policy: EDF, DeadlineScale: 1000})
	cfg := testCellConfig()
	work := dlWork()
	payloads := dlPayloads(t, work, 32)

	var mu sync.Mutex
	results := map[frame.RNTI]*DownlinkTask{}
	var wg sync.WaitGroup
	wg.Add(len(work.Allocations))
	err := EncodeOnPool(pool, cfg, work, payloads, time.Now().Add(time.Second), func(dl *DownlinkTask) {
		mu.Lock()
		results[dl.Alloc.RNTI] = dl
		mu.Unlock()
		wg.Done()
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, a := range work.Allocations {
		dl := results[a.RNTI]
		if dl == nil || dl.Err != nil {
			t.Fatalf("rnti %d: %+v", a.RNTI, dl)
		}
		if dl.Elapsed <= 0 {
			t.Fatal("elapsed not recorded")
		}
		// The pooled encode must produce the exact symbols the inline
		// transmit chain produces.
		proc, _ := phy.NewTransportProcessor(a.NumPRB)
		want, err := proc.Encode(a.MCS, a.NumPRB, payloads[i], uint16(a.RNTI), cfg.PCI, work.TTI.Subframe(), int(a.RV))
		if err != nil {
			t.Fatal(err)
		}
		if len(dl.Symbols) != len(want) {
			t.Fatalf("rnti %d: %d symbols, want %d", a.RNTI, len(dl.Symbols), len(want))
		}
		for j := range want {
			if dl.Symbols[j] != want[j] {
				t.Fatalf("rnti %d: symbol %d differs", a.RNTI, j)
			}
		}
	}
	st := pool.Stats()
	if st.Completed != 2 {
		t.Fatalf("pool stats %+v", st)
	}
}

func TestEncodeOnPoolValidation(t *testing.T) {
	pool := testPool(t, Config{Workers: 1, DeadlineScale: 1})
	cfg := testCellConfig()
	work := dlWork()
	if err := EncodeOnPool(pool, cfg, work, nil, time.Now(), nil); err == nil {
		t.Fatal("payload mismatch accepted")
	}
}

func TestDownlinkCheaperThanUplink(t *testing.T) {
	// The provisioning asymmetry the paper relies on: encoding a TB costs
	// well under half of decoding it on the default decode path. The bound
	// was first written against the float32 reference decoder, a test
	// oracle of internal/phy, whose TestEncodeCheaperThanFloat32Decode holds
	// it there.
	t.Run("default", func(t *testing.T) {
		const mcs, nprb = phy.MCS(16), 25
		proc, err := phy.NewTransportProcessor(nprb)
		if err != nil {
			t.Fatal(err)
		}
		tbs, err := mcs.TransportBlockSize(nprb)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(33))
		payload := make([]byte, tbs)
		for i := range payload {
			payload[i] = byte(rng.Intn(2))
		}
		syms, err := proc.Encode(mcs, nprb, payload, 1, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		rx := append([]complex128(nil), syms...)
		ch := phy.NewAWGNChannel(mcs.OperatingSNR()+2, 34)
		ch.Apply(rx)

		// Best of five per stage: a shared host's preemption lands on
		// single repetitions, not on the stage's cost.
		var enc, dec time.Duration
		for i := 0; i < 5; i++ {
			if _, err := proc.Encode(mcs, nprb, payload, 1, 1, 0, 0); err != nil {
				t.Fatal(err)
			}
			if e := proc.Timings.EncodeChain + proc.Timings.Modulate; i == 0 || e < enc {
				enc = e
			}
			if _, err := proc.Decode(mcs, nprb, rx, ch.N0(), 1, 1, 0, 0, nil); err != nil {
				t.Fatal(err)
			}
			if d := proc.Timings.Total(); i == 0 || d < dec {
				dec = d
			}
		}
		t.Logf("encode %v, decode %v", enc, dec)
		if raceEnabled {
			// The detector instruments the Go encode chain (~16× slower)
			// and none of the default decode's assembly kernels, so under
			// it this ratio compares an instrumented stage with an
			// uninstrumented one (measured 3.0 ms / 5.6 ms, against
			// 0.19 ms / 1.29 ms in a plain build). The path still ran
			// above under the detector; its ratio is asserted by the plain
			// build.
			t.Skip("wall-clock ratio of Go code to assembly is not meaningful under -race")
		}
		if enc*2 >= dec {
			t.Fatalf("encode %v not well under half of decode %v", enc, dec)
		}
	})
}
