// Package ranapi is PRAN's programmability surface: RAN programs attach to
// the agent serving a cell, observe per-cell radio state, and rewrite
// scheduling decisions before the data plane executes them. This is the "programmable"
// in Programmable RAN — centralizing processing is what makes cross-cell
// programs (interference coordination, admission control, custom
// schedulers) a software change instead of a base-station firmware change.
// The package ships the programs a live path installs: soft-frequency-reuse
// ICIC (ICICProgram), the degradation ladder's MCS cap (MCSCapProgram) and
// per-cell statistics (StatsProgram); any other Program plugs into the same
// Registry.
//
// Programs form an ordered chain: each subframe's scheduled work passes
// through every program's OnSubframe in registration order, and the data
// plane executes whatever survives. After processing, per-cell observations
// flow back through OnObservation.
//
// Concurrency: an agent (node.AgentNode) invokes every hook of its chain
// from its one TTI goroutine, stepping its cells in turn, so one agent
// never calls a program concurrently. A program installed on several
// agents in one process is called from each agent's goroutine, which is why
// Program asks for concurrency safety. The Registry is safe for concurrent
// use: programs may be registered or unregistered from any goroutine while
// subframes run, and take effect from the next subframe.
package ranapi

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"pran/internal/frame"
)

// ErrDuplicateProgram indicates a Register with an already-used name.
var ErrDuplicateProgram = errors.New("ranapi: program name already registered")

// Observation carries one cell-subframe's post-processing statistics to
// programs.
type Observation struct {
	// Cell and TTI identify the subframe.
	Cell frame.CellID
	TTI  frame.TTI
	// UsedPRB is the number of scheduled resource blocks.
	UsedPRB int
	// NumUEs is the number of scheduled allocations.
	NumUEs int
	// AvgSNRdB is the allocation-weighted mean SNR.
	AvgSNRdB float64
	// DemandCores is the subframe's compute demand in core fractions.
	DemandCores float64
}

// Program is a RAN program. Implementations must be safe for concurrent
// OnSubframe calls on different cells.
type Program interface {
	// Name identifies the program in the registry.
	Name() string
	// OnSubframe may rewrite a cell's scheduled work before execution.
	// Implementations return the (possibly modified) work; they must keep
	// allocations valid and non-overlapping.
	OnSubframe(work frame.SubframeWork) frame.SubframeWork
	// OnObservation receives post-execution statistics.
	OnObservation(obs Observation)
}

// Registry holds the ordered program chain. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	programs []Program
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a program to the chain.
func (r *Registry) Register(p Program) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range r.programs {
		if q.Name() == p.Name() {
			return fmt.Errorf("%q: %w", p.Name(), ErrDuplicateProgram)
		}
	}
	r.programs = append(r.programs, p)
	return nil
}

// Unregister removes a program by name; it reports whether one was removed.
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, q := range r.programs {
		if q.Name() == name {
			r.programs = append(r.programs[:i], r.programs[i+1:]...)
			return true
		}
	}
	return false
}

// Names lists registered programs in chain order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.programs))
	for i, p := range r.programs {
		out[i] = p.Name()
	}
	return out
}

// Apply runs the chain over one subframe's work.
func (r *Registry) Apply(work frame.SubframeWork) frame.SubframeWork {
	r.mu.RLock()
	chain := r.programs
	r.mu.RUnlock()
	for _, p := range chain {
		work = p.OnSubframe(work)
	}
	return work
}

// Observe fans an observation out to every program.
func (r *Registry) Observe(obs Observation) {
	r.mu.RLock()
	chain := r.programs
	r.mu.RUnlock()
	for _, p := range chain {
		p.OnObservation(obs)
	}
}

// CellStats is the per-cell aggregate a StatsProgram maintains.
type CellStats struct {
	// Subframes counts observed subframes.
	Subframes uint64
	// MeanPRB is the running mean of used PRBs.
	MeanPRB float64
	// MeanUEs is the running mean of scheduled UEs.
	MeanUEs float64
	// MeanDemand is the running mean compute demand in core fractions.
	MeanDemand float64
}

// StatsProgram passively aggregates per-cell statistics — the minimal
// "observe" end of the API, and what cmd/pranctl prints.
type StatsProgram struct {
	mu    sync.Mutex
	cells map[frame.CellID]*CellStats
}

// NewStatsProgram returns an empty stats collector.
func NewStatsProgram() *StatsProgram {
	return &StatsProgram{cells: make(map[frame.CellID]*CellStats)}
}

// Name implements Program.
func (s *StatsProgram) Name() string { return "stats" }

// OnSubframe implements Program (pass-through).
func (s *StatsProgram) OnSubframe(w frame.SubframeWork) frame.SubframeWork { return w }

// OnObservation implements Program.
func (s *StatsProgram) OnObservation(o Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.cells[o.Cell]
	if !ok {
		st = &CellStats{}
		s.cells[o.Cell] = st
	}
	st.Subframes++
	n := float64(st.Subframes)
	st.MeanPRB += (float64(o.UsedPRB) - st.MeanPRB) / n
	st.MeanUEs += (float64(o.NumUEs) - st.MeanUEs) / n
	st.MeanDemand += (o.DemandCores - st.MeanDemand) / n
}

// Stats returns a snapshot for a cell.
func (s *StatsProgram) Stats(cell frame.CellID) (CellStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.cells[cell]
	if !ok {
		return CellStats{}, false
	}
	return *st, true
}

// Cells lists observed cells in sorted order.
func (s *StatsProgram) Cells() []frame.CellID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]frame.CellID, 0, len(s.cells))
	for c := range s.cells {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
