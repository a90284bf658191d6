package dataplane

import (
	"fmt"
	"math"
	"time"

	"pran/internal/frame"
	"pran/internal/phy"
)

// CellProcessor is one cell's ingest path in the pool: it receives the
// cell's uplink subframe as time-domain I/Q (what the fronthaul delivers
// under the RF-IQ split), performs the OFDM FFT stage, extracts each
// scheduled allocation's resource elements, and submits per-UE decode tasks
// to the worker pool.
//
// The FFT stage runs on the ingest caller (one per cell per TTI), mirroring
// PRAN's design where cell-level low-PHY work is pinned and only UE-level
// work is pool-scheduled. A CellProcessor is not safe for concurrent use.
type CellProcessor struct {
	cfg  frame.CellConfig
	ofdm *phy.OFDMModulator
	grid *frame.Grid
	harq *HARQManager
	pool *Pool
	tel  *cellTelemetry // nil when the pool's telemetry is disabled
	// FFTTime accumulates time spent in the cell-level FFT stage.
	FFTTime time.Duration

	// EstimateChannel enables pilot-based LS channel estimation and
	// per-subcarrier equalization of the scheduled resource elements —
	// required when the link applies a fading response
	// (RRHEmulator.Fading), harmless otherwise.
	EstimateChannel bool
	estBuf          []complex128 // running channel estimate
	estRow          []complex128 // per-row LS scratch
	eqW             []complex128 // per-subcarrier equalizer weights 1/Ĥ
	// pilots caches the known pilot rows, which depend on (PCI, subframe,
	// symbol) only: index subframe × reference symbols + reference index,
	// each row generated the first time its subframe is ingested. A pilot
	// is (±1 ± i)/√2, so a row is kept as two sign bits per subcarrier (6 KB
	// a cell at 20 MHz, where whole rows would be 384 KB) and expanded into
	// pilotBuf for the estimate.
	pilots   [10 * phy.ReferenceSymbolsPerSubframe][]uint64
	pilotBuf []complex128
	// EstimateTime accumulates time in estimation + equalization.
	EstimateTime time.Duration
}

// NewCellProcessor builds the ingest path for one cell.
func NewCellProcessor(cfg frame.CellConfig, pool *Pool) (*CellProcessor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ofdm, err := phy.NewOFDMModulator(cfg.Bandwidth)
	if err != nil {
		return nil, err
	}
	grid, err := frame.NewGrid(cfg.Bandwidth)
	if err != nil {
		return nil, err
	}
	c := &CellProcessor{
		cfg:  cfg,
		ofdm: ofdm,
		grid: grid,
		harq: NewHARQManager(),
		pool: pool,
	}
	if pool.tel != nil {
		c.tel = newCellTelemetry(pool.tel, cfg.ID)
	}
	return c, nil
}

// HARQ exposes the cell's HARQ manager (the controller migrates this state
// when re-placing a cell).
func (c *CellProcessor) HARQ() *HARQManager { return c.harq }

// IngestSubframe processes one received subframe: samples holds
// SymbolsPerSubframe × FFTSize time-domain samples (symbol-major) and work
// describes the scheduled allocations. Each task's noise estimate derives
// from its allocation's SNR (as a real receiver's channel estimator would
// supply). Per-UE tasks inherit deadline = now + pool budget; onDone
// (optional) is attached to every task.
func (c *CellProcessor) IngestSubframe(samples []complex128, work frame.SubframeWork, onDone func(*Task)) error {
	fftSize := c.ofdm.FFTSize()
	if len(samples) != fftSize*phy.SymbolsPerSubframe {
		return fmt.Errorf("dataplane: %d samples, want %d: %w", len(samples), fftSize*phy.SymbolsPerSubframe, phy.ErrBadParameter)
	}
	if err := work.Validate(c.cfg.Bandwidth); err != nil {
		return err
	}
	// An idle subframe has nothing to decode: no transform, no estimate.
	// Nothing reads the grid before the next subframe rewrites it, and the
	// estimate starts from zero every subframe, so no state carries over.
	if len(work.Allocations) == 0 {
		return nil
	}
	now := time.Now()
	deadline := now.Add(c.pool.cfg.Budget())
	// One level read covers the subframe's HARQ-shed decision; Submit
	// re-reads when stamping each task. A transition between the two reads
	// is a harmless one-TTI transient (a task may decode degraded with a
	// combining buffer it no longer needed, or once without one).
	lvl := c.pool.Level()

	// Cell-level FFT stage: time domain → resource grid.
	fftStart := time.Now()
	for l := 0; l < phy.SymbolsPerSubframe; l++ {
		row, err := c.grid.Symbol(l)
		if err != nil {
			return err
		}
		if err := c.ofdm.Demodulate(row, samples[l*fftSize:(l+1)*fftSize]); err != nil {
			return err
		}
	}
	c.FFTTime += time.Since(fftStart)

	// Channel estimation + equalization (cell-level, shared by all UEs).
	noiseEnhancement := 1.0
	if c.EstimateChannel {
		estStart := time.Now()
		enh, err := c.equalizeSubframe(work)
		if err != nil {
			return err
		}
		noiseEnhancement = enh
		c.EstimateTime += time.Since(estStart)
	}

	// UE-level tasks: extract REs and submit.
	for _, a := range work.Allocations {
		res := make([]complex128, a.NumPRB*phy.DataREsPerPRB)
		if err := c.grid.Extract(res, a); err != nil {
			return err
		}
		t := &Task{
			Cell:     work.Cell,
			PCI:      c.cfg.PCI,
			TTI:      work.TTI,
			Alloc:    a,
			REs:      res,
			N0:       math.Pow(10, -a.SNRdB/10) * noiseEnhancement,
			Deadline: deadline,
			Enqueued: now,
			OnDone:   onDone,
		}
		// At the shed-HARQ rung retransmissions decode fresh — no buffer is
		// attached, so no LLR accumulation, no busy-flag handoff, and no
		// soft-buffer memory traffic for this cell until the level drops.
		if !lvl.ShedsHARQ() {
			if sb, st := c.harq.prepareOwned(a, work.TTI); sb != nil {
				t.Soft = sb
				t.softState = st
			}
		}
		if c.tel != nil {
			c.tel.tasks.Inc(c.tel.shard)
			if a.RV != 0 {
				c.tel.harqRetx.Inc(c.tel.shard)
				c.pool.tel.harqRetx.Inc(c.pool.tel.driverShard)
			}
		}
		if err := c.pool.Submit(t); err != nil {
			return err
		}
	}
	return nil
}

// equalizeSubframe estimates the channel from the two pilot rows, derives one
// equalizer weight per subcarrier, and applies it to the data resource
// elements of the subframe's allocations — unscheduled subcarriers are left
// as received. It returns the whole-band mean noise enhancement factor that
// scales the demodulators' noise power.
func (c *CellProcessor) equalizeSubframe(work frame.SubframeWork) (float64, error) {
	sc := c.grid.Subcarriers()
	if len(c.estBuf) != sc {
		c.estBuf = make([]complex128, sc)
		c.estRow = make([]complex128, sc)
		c.eqW = make([]complex128, sc)
	}
	refs := frame.ReferenceSymbolIndices()
	clear(c.estBuf)
	for ri, l := range refs {
		row, err := c.grid.Symbol(l)
		if err != nil {
			return 0, err
		}
		if err := phy.EstimateLS(c.estRow, row, c.pilotRow(work.TTI, ri, l)); err != nil {
			return 0, err
		}
		for k := range c.estBuf {
			c.estBuf[k] += c.estRow[k]
		}
	}
	inv := complex(1/float64(len(refs)), 0)
	for k := range c.estBuf {
		c.estBuf[k] *= inv
	}
	enh, err := phy.EqualizerWeights(c.eqW, c.estBuf)
	if err != nil {
		return 0, err
	}
	for l := 0; l < phy.SymbolsPerSubframe; l++ {
		if frame.IsReferenceSymbol(l) {
			continue
		}
		row, err := c.grid.Symbol(l)
		if err != nil {
			return 0, err
		}
		for _, a := range work.Allocations {
			first := a.FirstPRB * phy.SubcarriersPerPRB
			end := first + a.NumPRB*phy.SubcarriersPerPRB
			res, w := row[first:end], c.eqW[first:end]
			for k := range res {
				res[k] *= w[k]
			}
		}
	}
	return enh, nil
}

// pilotRow returns the known pilot values of the subframe's ri-th reference
// symbol (OFDM symbol l) in pilotBuf, valid until the next call.
func (c *CellProcessor) pilotRow(tti frame.TTI, ri, l int) []complex128 {
	sc := c.grid.Subcarriers()
	if len(c.pilotBuf) != sc {
		c.pilotBuf = make([]complex128, sc)
	}
	row := c.pilotBuf
	i := int(tti.Subframe())*phy.ReferenceSymbolsPerSubframe + ri
	signs := c.pilots[i]
	if signs == nil {
		frame.Pilots(row, c.cfg.PCI, tti, l)
		signs = make([]uint64, (2*sc+63)/64)
		for k, v := range row {
			if real(v) < 0 {
				signs[k/32] |= 1 << (2 * (k % 32))
			}
			if imag(v) < 0 {
				signs[k/32] |= 2 << (2 * (k % 32))
			}
		}
		c.pilots[i] = signs
		return row
	}
	amp := [2]float64{1 / math.Sqrt2, -1 / math.Sqrt2}
	for k := range row {
		b := signs[k/32] >> (2 * (k % 32))
		row[k] = complex(amp[b&1], amp[b>>1&1])
	}
	return row
}
