package traffic

// This file is the workload-diversity event layer: composable, seeded
// episodes laid on top of the diurnal shapes — the flash crowds, handover
// waves, and correlated regional surges that stress placement, failover, and
// the degradation ladder together (the load shapes Tran et al. show dominate
// virtualized-BBU compute demand). Events are deterministic functions of
// time; they consume no randomness at application time, so a Generator with
// a Schedule installed draws exactly the same PRNG stream as one without,
// and a nil Schedule reproduces the pre-event traces bit for bit.
//
// Events operate on the pre-clamp utilization vector of the whole system
// (one slot per cell), which is what lets MobilityWave *conserve* total
// offered load while moving it between cells: it stresses placement, not
// capacity. FlashCrowd and RegionalSurge deliberately add load.
//
// Concurrency: Event and Schedule values are immutable after construction
// and safe to use from any goroutine (Apply mutates only the caller's
// vector; Factor allocates its own scratch).

import (
	"fmt"
	"math"
	"math/rand"

	"pran/internal/phy"
)

// Event is one workload-diversity episode. Apply reshapes the pre-clamp
// utilization vector u (indexed by absolute cell) at tSec seconds after
// trace start; outside the event's active window it must leave u untouched.
type Event interface {
	// Active reports whether the event has any effect at tSec.
	Active(tSec float64) bool
	// Apply reshapes u in place at tSec.
	Apply(tSec float64, u []float64)
	// String describes the event for reports and logs.
	String() string
}

// envelope is the shared ramp-up / plateau / decay activation profile, 0
// outside [start, start+ramp+plateau+decay] and 1 on the plateau.
func envelope(tSec, start, ramp, plateau, decay float64) float64 {
	dt := tSec - start
	switch {
	case dt < 0:
		return 0
	case dt < ramp:
		if ramp <= 0 {
			return 1
		}
		return dt / ramp
	case dt < ramp+plateau:
		return 1
	case dt < ramp+plateau+decay:
		if decay <= 0 {
			return 0
		}
		return 1 - (dt-ramp-plateau)/decay
	default:
		return 0
	}
}

// FlashCrowd spikes one cell's load by Peak× (stadium letting out, concert,
// incident): utilization ramps up over RampSec, holds for PlateauSec, and
// decays over DecaySec. It adds load — the spike is new demand, not demand
// moved from elsewhere.
type FlashCrowd struct {
	// Cell is the absolute cell index the crowd forms in.
	Cell int
	// StartSec is the onset, in seconds after trace start.
	StartSec float64
	// RampSec, PlateauSec, DecaySec shape the episode.
	RampSec, PlateauSec, DecaySec float64
	// Peak is the multiplier at full plateau (5–10× is typical).
	Peak float64
}

// Active implements Event.
func (e FlashCrowd) Active(tSec float64) bool {
	return envelope(tSec, e.StartSec, e.RampSec, e.PlateauSec, e.DecaySec) > 0
}

// Apply implements Event.
func (e FlashCrowd) Apply(tSec float64, u []float64) {
	if e.Cell < 0 || e.Cell >= len(u) {
		return
	}
	env := envelope(tSec, e.StartSec, e.RampSec, e.PlateauSec, e.DecaySec)
	if env <= 0 {
		return
	}
	u[e.Cell] *= 1 + (e.Peak-1)*env
}

// String implements Event.
func (e FlashCrowd) String() string {
	return fmt.Sprintf("flash-crowd cell=%d start=%.0fs ramp=%.0fs plateau=%.0fs decay=%.0fs peak=%.1fx",
		e.Cell, e.StartSec, e.RampSec, e.PlateauSec, e.DecaySec, e.Peak)
}

// MobilityWave migrates load mass across an ordered cell list (a commuter
// corridor, a handover front) at a configurable speed. Every path cell
// donates Fraction of its current load into a pool that is redistributed
// across the path weighted by a Gaussian front centred at the wave's current
// position, so total offered load is conserved exactly (pre-clamp): the wave
// stresses *placement*, not capacity. Before the front enters the path and
// after it leaves, donations return to their donors and the wave is a no-op.
type MobilityWave struct {
	// Path is the ordered list of absolute cell indices the front crosses.
	Path []int
	// StartSec is when the front is at path position 0.
	StartSec float64
	// CellsPerSec is the front speed along the path.
	CellsPerSec float64
	// WidthCells is the Gaussian front width (σ), in path positions.
	WidthCells float64
	// Fraction in (0,1] is the share of each path cell's load that rides
	// the wave.
	Fraction float64
}

// frontMargin is how many front widths past either path end the wave is
// still considered active (the Gaussian tail it drags along).
const frontMargin = 3.0

// position returns the front's path position at tSec.
func (e MobilityWave) position(tSec float64) float64 {
	return (tSec - e.StartSec) * e.CellsPerSec
}

// Active implements Event.
func (e MobilityWave) Active(tSec float64) bool {
	if len(e.Path) == 0 {
		return false
	}
	p := e.position(tSec)
	return p > -frontMargin*e.WidthCells && p < float64(len(e.Path)-1)+frontMargin*e.WidthCells
}

// Apply implements Event.
func (e MobilityWave) Apply(tSec float64, u []float64) {
	if !e.Active(tSec) {
		return
	}
	p := e.position(tSec)
	w := e.WidthCells
	if w <= 0 {
		w = 1
	}
	// Front weights over the path, and the donation pool.
	var sumW, pool float64
	weights := make([]float64, len(e.Path))
	for k, cell := range e.Path {
		if cell < 0 || cell >= len(u) {
			return // malformed path: leave the vector untouched
		}
		d := float64(k) - p
		weights[k] = math.Exp(-d * d / (2 * w * w))
		sumW += weights[k]
		pool += e.Fraction * u[cell]
	}
	if sumW <= 1e-12 {
		return
	}
	// Redistribute: each path cell keeps (1-Fraction) of its own load and
	// receives its front-weighted share of the pool. Σu is unchanged.
	for k, cell := range e.Path {
		u[cell] = u[cell]*(1-e.Fraction) + pool*weights[k]/sumW
	}
}

// String implements Event.
func (e MobilityWave) String() string {
	return fmt.Sprintf("mobility-wave path=%v start=%.0fs speed=%.2fcells/s width=%.1f fraction=%.2f",
		e.Path, e.StartSec, e.CellsPerSec, e.WidthCells, e.Fraction)
}

// RegionalSurge applies a correlated multiplier across a cell subset (a
// city-wide alert, a weather event, a popular broadcast): every cell in the
// region swells together, which defeats the statistical multiplexing pooling
// relies on and forces the controller to activate capacity or degrade.
type RegionalSurge struct {
	// Cells lists the absolute cell indices in the region.
	Cells []int
	// StartSec is the onset.
	StartSec float64
	// RampSec, HoldSec, DecaySec shape the episode.
	RampSec, HoldSec, DecaySec float64
	// Factor is the correlated multiplier at full hold.
	Factor float64
}

// Active implements Event.
func (e RegionalSurge) Active(tSec float64) bool {
	return envelope(tSec, e.StartSec, e.RampSec, e.HoldSec, e.DecaySec) > 0
}

// Apply implements Event.
func (e RegionalSurge) Apply(tSec float64, u []float64) {
	env := envelope(tSec, e.StartSec, e.RampSec, e.HoldSec, e.DecaySec)
	if env <= 0 {
		return
	}
	m := 1 + (e.Factor-1)*env
	for _, cell := range e.Cells {
		if cell >= 0 && cell < len(u) {
			u[cell] *= m
		}
	}
}

// String implements Event.
func (e RegionalSurge) String() string {
	return fmt.Sprintf("regional-surge cells=%v start=%.0fs ramp=%.0fs hold=%.0fs decay=%.0fs factor=%.1fx",
		e.Cells, e.StartSec, e.RampSec, e.HoldSec, e.DecaySec, e.Factor)
}

// Schedule is a bound set of events: it knows the full system's cell
// profiles (and trace start hour), so it can compute the deterministic
// pre-event utilization vector any event reshapes. One Schedule is shared by
// every consumer of a run, so each agent's per-TTI Generator sees the same
// events.
type Schedule struct {
	profiles  []CellProfile
	startHour float64
	events    []Event
}

// NewSchedule binds events to the full system's cell profiles. startHour is
// the time-of-day (hours) at trace second 0 and must match the Generators
// the schedule is later installed into.
func NewSchedule(profiles []CellProfile, startHour float64, events ...Event) (*Schedule, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("traffic: schedule needs cell profiles: %w", phy.ErrBadParameter)
	}
	if startHour < 0 || startHour >= 24 {
		return nil, fmt.Errorf("traffic: schedule start hour %v outside [0,24): %w", startHour, phy.ErrBadParameter)
	}
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("traffic: schedule profile %d: %w", i, err)
		}
	}
	return &Schedule{
		profiles:  append([]CellProfile(nil), profiles...),
		startHour: startHour,
		events:    append([]Event(nil), events...),
	}, nil
}

// NumCells returns the number of cells the schedule is bound to.
func (s *Schedule) NumCells() int { return len(s.profiles) }

// StartHour returns the time-of-day at trace second 0.
func (s *Schedule) StartHour() float64 { return s.startHour }

// Events returns the schedule's events (shared slice; do not mutate).
func (s *Schedule) Events() []Event { return s.events }

// ActiveAt reports whether any event reshapes load at tSec.
func (s *Schedule) ActiveAt(tSec float64) bool {
	for _, e := range s.events {
		if e.Active(tSec) {
			return true
		}
	}
	return false
}

// Apply runs every event, in order, over the caller's pre-clamp utilization
// vector (len(u) must equal NumCells()).
func (s *Schedule) Apply(tSec float64, u []float64) {
	for _, e := range s.events {
		e.Apply(tSec, u)
	}
}

// base fills u with the deterministic (diurnal, pre-noise, pre-event)
// utilization of every cell at tSec.
func (s *Schedule) base(tSec float64, u []float64) {
	tod := math.Mod(s.startHour+tSec/3600, 24)
	for i, p := range s.profiles {
		u[i] = p.PeakUtilization * p.Class.Shape(tod)
	}
}

// Factor returns the multiplicative load factor events impose on one cell at
// tSec: the ratio of the cell's deterministic event-shaped utilization to
// its deterministic base. Generators apply this factor to their own bursty
// utilization, which keeps per-cell generation independent (no shared
// mutable state) while cross-cell events like MobilityWave still conserve
// load in the deterministic aggregate. Returns 1 when no event is active.
func (s *Schedule) Factor(cell int, tSec float64) float64 {
	if cell < 0 || cell >= len(s.profiles) || !s.ActiveAt(tSec) {
		return 1
	}
	base := make([]float64, len(s.profiles))
	s.base(tSec, base)
	shaped := append([]float64(nil), base...)
	s.Apply(tSec, shaped)
	// Class shapes keep an overnight floor and PeakUtilization is positive,
	// so the base never vanishes.
	return shaped[cell] / base[cell]
}

// RandomSchedule draws a seeded, reproducible event schedule covering
// simSeconds of trace: one flash crowd, one mobility wave along a shuffled
// corridor, and one regional surge over roughly a third of the cells, with
// seeded start times, magnitudes, and cell choices. Identical seeds yield
// identical schedules; the soak harness records the seed so any failure
// replays exactly.
func RandomSchedule(profiles []CellProfile, startHour float64, seed int64, simSeconds float64) (*Schedule, error) {
	if simSeconds <= 0 {
		return nil, fmt.Errorf("traffic: random schedule duration %v: %w", simSeconds, phy.ErrBadParameter)
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(profiles)
	if n == 0 {
		return nil, fmt.Errorf("traffic: random schedule needs cell profiles: %w", phy.ErrBadParameter)
	}
	var events []Event

	// Flash crowd early: one cell spikes 5–10×.
	events = append(events, FlashCrowd{
		Cell:       rng.Intn(n),
		StartSec:   (0.05 + 0.10*rng.Float64()) * simSeconds,
		RampSec:    0.05 * simSeconds,
		PlateauSec: 0.15 * simSeconds,
		DecaySec:   0.10 * simSeconds,
		Peak:       5 + 5*rng.Float64(),
	})

	// Mobility wave mid-trace along a shuffled corridor of up to 8 cells.
	pathLen := n
	if pathLen > 8 {
		pathLen = 8
	}
	path := rng.Perm(n)[:pathLen]
	waveStart := (0.35 + 0.05*rng.Float64()) * simSeconds
	waveSpan := 0.30 * simSeconds // front crosses the corridor in ~30% of the trace
	events = append(events, MobilityWave{
		Path:        path,
		StartSec:    waveStart,
		CellsPerSec: float64(pathLen) / waveSpan,
		WidthCells:  1.5,
		Fraction:    0.5 + 0.3*rng.Float64(),
	})

	// Regional surge late: a correlated 2–4× swell over about a third of
	// the cells.
	region := rng.Perm(n)[:(n+2)/3]
	events = append(events, RegionalSurge{
		Cells:    region,
		StartSec: (0.65 + 0.05*rng.Float64()) * simSeconds,
		RampSec:  0.05 * simSeconds,
		HoldSec:  0.15 * simSeconds,
		DecaySec: 0.05 * simSeconds,
		Factor:   2 + 2*rng.Float64(),
	})
	return NewSchedule(profiles, startHour, events...)
}
