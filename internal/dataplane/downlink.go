package dataplane

import (
	"fmt"
	"time"

	"pran/internal/frame"
	"pran/internal/phy"
)

// Downlink path: the pool also *produces* subframes — encoding transport
// blocks, mapping them onto the cell's resource grid, and OFDM-modulating
// the grid into the time-domain I/Q the fronthaul ships to the RRH. The
// deadline here is the transmission instant: a subframe scheduled for TTI t
// must be fully synthesized before t's start, or the RRH transmits silence
// (an "empty subframe" — lost capacity rather than lost data, since the MAC
// reschedules).
//
// Encoding costs roughly a third of decoding (no iteration), so PRAN's
// provisioning is receive-dominated; the downlink path exists to make the
// data plane complete and to let experiments account total cell cost.

// DownlinkTask is one UE allocation's encode work item.
type DownlinkTask struct {
	// Cell, PCI and TTI identify the subframe under construction.
	Cell frame.CellID
	PCI  uint16
	TTI  frame.TTI
	// Alloc is the UE allocation to encode.
	Alloc frame.Allocation
	// Payload is the transport block (one bit per byte, TBS bits).
	Payload []byte

	// Symbols receives the modulated resource elements on success.
	Symbols []complex128
	// Err is the encode error, if any.
	Err error
	// Elapsed is the processing time.
	Elapsed time.Duration
}

// DownlinkProcessor synthesizes one cell's downlink subframes. It is the
// transmit-side sibling of CellProcessor: callers submit the subframe's
// allocations and payloads, the processor encodes each through the real
// transmit chain, maps them onto the grid, and OFDM-modulates the result.
// Not safe for concurrent use; one per cell.
type DownlinkProcessor struct {
	cfg     frame.CellConfig
	ofdm    *phy.OFDMModulator
	grid    *frame.Grid
	enc     *phy.TransportProcessor // encode-only: sized for the cell bandwidth, no decode buffers
	samples []complex128
	// EncodeTime accumulates transmit-chain time for cost accounting.
	EncodeTime time.Duration
}

// NewDownlinkProcessor builds the transmit path for one cell.
func NewDownlinkProcessor(cfg frame.CellConfig) (*DownlinkProcessor, error) {
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
	enc, err := phy.NewTransportProcessor(cfg.Bandwidth.PRB())
	if err != nil {
		return nil, err
	}
	return &DownlinkProcessor{
		cfg:     cfg,
		ofdm:    ofdm,
		grid:    grid,
		enc:     enc,
		samples: make([]complex128, ofdm.FFTSize()*phy.SymbolsPerSubframe),
	}, nil
}

// Config returns the cell configuration.
func (d *DownlinkProcessor) Config() frame.CellConfig { return d.cfg }

// BuildSubframe encodes every allocation's payload, maps the results onto
// the grid, and returns the subframe's time-domain samples (reused across
// calls). payloads[i] must hold allocation i's TBS bits.
func (d *DownlinkProcessor) BuildSubframe(work frame.SubframeWork, payloads [][]byte) ([]complex128, error) {
	if err := work.Validate(d.cfg.Bandwidth); err != nil {
		return nil, err
	}
	if len(payloads) != len(work.Allocations) {
		return nil, fmt.Errorf("dataplane: %d payloads for %d allocations: %w",
			len(payloads), len(work.Allocations), phy.ErrBadParameter)
	}
	start := time.Now()
	d.grid.Reset()
	for i, a := range work.Allocations {
		syms, err := d.enc.Encode(a.MCS, a.NumPRB, payloads[i], uint16(a.RNTI), d.cfg.PCI, work.TTI.Subframe(), int(a.RV))
		if err != nil {
			return nil, fmt.Errorf("dataplane: DL encode alloc %d: %w", i, err)
		}
		if err := d.grid.Place(a, syms); err != nil {
			return nil, err
		}
	}
	fftSize := d.ofdm.FFTSize()
	for l := 0; l < phy.SymbolsPerSubframe; l++ {
		row, err := d.grid.Symbol(l)
		if err != nil {
			return nil, err
		}
		if err := d.ofdm.Symbol(d.samples[l*fftSize:(l+1)*fftSize], row); err != nil {
			return nil, err
		}
	}
	d.EncodeTime += time.Since(start)
	return d.samples, nil
}

// EncodeOnPool submits per-UE encode tasks to a worker pool instead of
// encoding inline, for cells whose downlink load should share the pool's
// EDF scheduling with uplink work. Each DownlinkTask is wrapped in a
// regular Task whose deadline is the subframe's transmission instant;
// onDone fires per allocation with the encoded symbols.
//
// The uplink Task type carries the work; its Alloc.Dir distinguishes the
// direction for accounting.
func EncodeOnPool(pool *Pool, cell frame.CellConfig, work frame.SubframeWork, payloads [][]byte, txDeadline time.Time, onDone func(*DownlinkTask)) error {
	if err := work.Validate(cell.Bandwidth); err != nil {
		return err
	}
	if len(payloads) != len(work.Allocations) {
		return fmt.Errorf("dataplane: %d payloads for %d allocations: %w",
			len(payloads), len(work.Allocations), phy.ErrBadParameter)
	}
	now := time.Now()
	for i, a := range work.Allocations {
		a := a
		a.Dir = phy.Downlink
		dl := &DownlinkTask{Cell: work.Cell, PCI: cell.PCI, TTI: work.TTI, Alloc: a, Payload: payloads[i]}
		t := &Task{
			Cell:     work.Cell,
			PCI:      cell.PCI,
			TTI:      work.TTI,
			Alloc:    a,
			Enqueued: now,
			Deadline: txDeadline,
			runInstead: func(w *worker, t *Task) {
				start := time.Now()
				proc, err := w.processor()
				if err != nil {
					dl.Err = err
					return
				}
				syms, err := proc.Encode(dl.Alloc.MCS, dl.Alloc.NumPRB, dl.Payload, uint16(dl.Alloc.RNTI), dl.PCI, dl.TTI.Subframe(), int(dl.Alloc.RV))
				if err != nil {
					dl.Err = err
					return
				}
				// Copy out: the processor's buffer is reused.
				dl.Symbols = append(dl.Symbols[:0], syms...)
				dl.Elapsed = time.Since(start)
			},
			OnDone: func(t *Task) {
				if dl.Err == nil && t.Err != nil {
					dl.Err = t.Err
				}
				if onDone != nil {
					onDone(dl)
				}
			},
		}
		if err := pool.Submit(t); err != nil {
			return err
		}
	}
	return nil
}
