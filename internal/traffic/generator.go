package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"pran/internal/frame"
	"pran/internal/phy"
)

// Generator produces per-TTI subframe workloads (UE allocations with PRB
// counts and MCS) for a set of cells, consistent with each cell's diurnal
// profile: the expected PRB utilization at any instant matches
// PeakUtilization × Shape(time-of-day), modulated by AR(1) burstiness.
// Each cell keeps a persistent UE population whose SNRs (and therefore MCS)
// are stable across TTIs with small fading jitter, matching how real
// schedulers see users.
//
// The generator is deterministic for a given seed and safe for concurrent
// use across *different* cells (each cell has its own PRNG), but per-cell
// calls must be serialized in TTI order.
type Generator struct {
	bw    phy.Bandwidth
	cells []*cellGen
	start float64 // starting time-of-day in hours

	// sched, when non-nil, reshapes each cell's utilization with the
	// workload-diversity event layer; firstCell maps this generator's local
	// cell 0 onto the schedule's absolute cell index. Event factors are
	// deterministic functions of time and consume no PRNG draws, so a nil
	// schedule (or one with no active events) leaves traces bit-identical
	// to the pre-event generator.
	sched     *Schedule
	firstCell int
}

type cellGen struct {
	prof    CellProfile
	rng     *rand.Rand
	ar      float64
	arRho   float64
	arSigma float64
	ues     []ueState
	next    int // round-robin cursor into ues
}

type ueState struct {
	rnti  frame.RNTI
	snrDB float64
}

// NewGenerator builds a workload generator for len(profiles) cells sharing
// one bandwidth. startHour sets the time-of-day at TTI 0.
func NewGenerator(bw phy.Bandwidth, profiles []CellProfile, seed int64, startHour float64) (*Generator, error) {
	if err := bw.Validate(); err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("traffic: no cell profiles: %w", phy.ErrBadParameter)
	}
	if startHour < 0 || startHour >= 24 {
		return nil, fmt.Errorf("traffic: start hour %v outside [0,24): %w", startHour, phy.ErrBadParameter)
	}
	g := &Generator{bw: bw, start: startHour}
	for ci, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(ci)*7919))
		// AR(1) stepped per TTI (1 ms) with 30 s correlation time.
		rho := math.Exp(-0.001 / 30)
		c := &cellGen{
			prof:    p,
			rng:     rng,
			arRho:   rho,
			arSigma: 0.20 * math.Sqrt(1-rho*rho),
		}
		// Persistent UE pool: 4× the peak concurrency, SNRs drawn once.
		n := int(math.Ceil(p.MeanUEsAtPeak * 4))
		if n < 4 {
			n = 4
		}
		for u := 0; u < n; u++ {
			c.ues = append(c.ues, ueState{
				rnti:  frame.RNTI(100 + u),
				snrDB: p.SNRMeanDB + rng.NormFloat64()*p.SNRStdDB,
			})
		}
		g.cells = append(g.cells, c)
	}
	return g, nil
}

// SetSchedule installs a workload-diversity event schedule. firstCell is
// the schedule's absolute index of this generator's local cell 0, so
// single-cell generators spread across agents can share one system-wide
// schedule. The schedule's start hour must match the generator's, and every
// local cell must map inside the schedule's cell range. A nil schedule
// uninstalls events.
func (g *Generator) SetSchedule(s *Schedule, firstCell int) error {
	if s == nil {
		g.sched, g.firstCell = nil, 0
		return nil
	}
	if s.StartHour() != g.start {
		return fmt.Errorf("traffic: schedule start hour %v != generator %v: %w",
			s.StartHour(), g.start, phy.ErrBadParameter)
	}
	if firstCell < 0 || firstCell+len(g.cells) > s.NumCells() {
		return fmt.Errorf("traffic: cells [%d,%d) outside schedule's %d cells: %w",
			firstCell, firstCell+len(g.cells), s.NumCells(), phy.ErrBadParameter)
	}
	g.sched, g.firstCell = s, firstCell
	return nil
}

// todAt converts a TTI to time-of-day hours with wraparound.
func (g *Generator) todAt(tti frame.TTI) float64 {
	return math.Mod(g.start+float64(tti)*0.001/3600, 24)
}

// Subframe generates the uplink workload for one cell and TTI. Allocations
// are contiguous, non-overlapping, and carry each UE's SNR so the data plane
// can emulate the channel. Calls for one cell must be made in TTI order.
func (g *Generator) Subframe(cell int, tti frame.TTI) (frame.SubframeWork, error) {
	if cell < 0 || cell >= len(g.cells) {
		return frame.SubframeWork{}, fmt.Errorf("traffic: cell %d out of %d: %w", cell, len(g.cells), phy.ErrBadParameter)
	}
	c := g.cells[cell]
	// Advance burstiness and compute this TTI's PRB target.
	c.ar = c.arRho*c.ar + c.arSigma*c.rng.NormFloat64()
	u := c.prof.PeakUtilization * c.prof.Class.Shape(g.todAt(tti)) * (1 + c.ar)
	if g.sched != nil {
		u *= g.sched.Factor(g.firstCell+cell, float64(tti)*0.001)
	}
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	targetPRB := int(math.Round(u * float64(g.bw.PRB())))
	work := frame.SubframeWork{Cell: frame.CellID(cell), TTI: tti}
	if targetPRB == 0 {
		return work, nil
	}
	// Concurrency scales with load; at peak it averages MeanUEsAtPeak.
	meanUEs := c.prof.MeanUEsAtPeak * u / c.prof.PeakUtilization
	nUEs := 1 + c.rng.Intn(int(math.Ceil(2*meanUEs)))
	if nUEs > targetPRB {
		nUEs = targetPRB
	}
	alloc := frame.NewPRBAllocator(g.bw)
	remaining := targetPRB
	for i := 0; i < nUEs && remaining > 0; i++ {
		ue := c.ues[c.next%len(c.ues)]
		c.next++
		share := remaining / (nUEs - i)
		if share < 1 {
			share = 1
		}
		// Jitter the share ±50% to get a realistic size spread.
		size := int(float64(share) * (0.5 + c.rng.Float64()))
		if size < 1 {
			size = 1
		}
		if size > remaining {
			size = remaining
		}
		first, ok := alloc.Take(size)
		if !ok {
			break
		}
		// Per-TTI fading jitter around the UE's long-term SNR.
		snr := ue.snrDB + c.rng.NormFloat64()*1.5
		work.Allocations = append(work.Allocations, frame.Allocation{
			RNTI:        ue.rnti,
			FirstPRB:    first,
			NumPRB:      size,
			MCS:         phy.MCSForSNR(snr),
			HARQProcess: uint8(uint64(tti) % 8),
			RV:          0,
			SNRdB:       snr,
		})
		remaining -= size
	}
	return work, nil
}
