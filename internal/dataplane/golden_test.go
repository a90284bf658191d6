package dataplane

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
)

// updateGolden regenerates testdata/ingest_golden.txt from the tree:
// go test ./internal/dataplane -run TestIngestGoldenDigests -update-golden.
// Regenerating it is only ever right for a deliberate change of arithmetic.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/ingest_golden.txt")

const ingestGoldenFile = "testdata/ingest_golden.txt"

// TestIngestGoldenDigests pins one subframe's ingest bit for bit: the
// emulator's transmit IFFTs, the 14 demodulated symbols, the equalised grid,
// and every task's extracted REs and noise estimate, at 1.4 and 20 MHz, over
// AWGN alone and over EPA fading with EstimateChannel. The digests were
// taken before the FFT's load and bin stores were vectorised; the default
// build and the pure-Go build (-tags purego) must both reproduce them.
func TestIngestGoldenDigests(t *testing.T) {
	var lines []string
	for _, bw := range []phy.Bandwidth{phy.BW1_4MHz, phy.BW20MHz} {
		for _, epa := range []bool{false, true} {
			cfg := frame.CellConfig{ID: 1, PCI: 42, Bandwidth: bw, Antennas: 1}
			pool := testPool(t, Config{Workers: 1, Policy: EDF, DeadlineScale: 1000})
			rrh, err := NewRRHEmulator(cfg, 41)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := NewCellProcessor(cfg, pool)
			if err != nil {
				t.Fatal(err)
			}
			if epa {
				fading, err := phy.NewChannelResponse(phy.ProfileEPA, bw, 43)
				if err != nil {
					t.Fatal(err)
				}
				rrh.Fading = fading
				cp.EstimateChannel = true
			}
			work := frame.SubframeWork{
				Cell: 1, TTI: 7,
				Allocations: []frame.Allocation{
					{RNTI: 300, FirstPRB: 0, NumPRB: 3, MCS: 8, SNRdB: phy.MCS(8).OperatingSNR() + 6},
					{RNTI: 301, FirstPRB: 3, NumPRB: 2, MCS: 16, SNRdB: phy.MCS(16).OperatingSNR() + 6},
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
			done := make(chan *Task, len(work.Allocations))
			if err := cp.IngestSubframe(samples, work, func(tk *Task) { done <- tk }); err != nil {
				t.Fatal(err)
			}
			grid := sha256.New()
			for _, row := range gridRows(cp.grid) {
				hashComplex(grid, row)
			}
			tasks := make([]*Task, 0, len(work.Allocations))
			for range work.Allocations {
				tasks = append(tasks, <-done)
			}
			sort.Slice(tasks, func(i, j int) bool { return tasks[i].Alloc.RNTI < tasks[j].Alloc.RNTI })
			res := sha256.New()
			for _, tk := range tasks {
				hashComplex(res, tk.REs)
				binary.Write(res, binary.LittleEndian, math.Float64bits(tk.N0))
			}
			channel := "awgn"
			if epa {
				channel = "epa"
			}
			lines = append(lines,
				fmt.Sprintf("prb=%d %s grid %x", bw.PRB(), channel, grid.Sum(nil)),
				fmt.Sprintf("prb=%d %s res %x", bw.PRB(), channel, res.Sum(nil)))
		}
	}

	if *updateGolden {
		if err := os.WriteFile(ingestGoldenFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), ingestGoldenFile)
		return
	}
	raw, err := os.ReadFile(ingestGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(lines, "\n")+"\n", string(raw); got != want {
		t.Fatalf("ingest digests differ from %s:\ngot:\n%swant:\n%s", ingestGoldenFile, got, want)
	}
}

// hashComplex folds the bits of x into h.
// gridRows returns g's OFDM symbols in order; end to end they are the whole
// grid, symbol-major.
func gridRows(g *frame.Grid) [][]complex128 {
	rows := make([][]complex128, phy.SymbolsPerSubframe)
	for l := range rows {
		rows[l], _ = g.Symbol(l)
	}
	return rows
}

func hashComplex(h io.Writer, x []complex128) {
	var b [16]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
}
