package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"pran/internal/telemetry"
)

// Sentinel errors for cluster membership operations.
var (
	// ErrNoSuchServer indicates an unknown server ID.
	ErrNoSuchServer = errors.New("cluster: no such server")
	// ErrBadTransition indicates an illegal server state change.
	ErrBadTransition = errors.New("cluster: illegal state transition")
)

// ServerID identifies a server in the pool.
type ServerID int

// ServerState is the lifecycle state the controller tracks per server.
type ServerState int

// Server lifecycle states.
const (
	// Standby servers are powered and registered but receive no cells;
	// they exist for fast scale-up and failover.
	Standby ServerState = iota
	// Active servers process assigned cells.
	Active
	// Draining servers finish their current cells but accept no new ones
	// (scale-down in progress).
	Draining
	// Failed servers are gone; their cells must be re-placed.
	Failed
)

// String implements fmt.Stringer.
func (s ServerState) String() string {
	switch s {
	case Standby:
		return "standby"
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("ServerState(%d)", int(s))
	}
}

// Server describes one pool member.
type Server struct {
	// ID is the stable identifier.
	ID ServerID
	// Cores is the number of physical cores usable for baseband work.
	Cores int
	// SpeedFactor scales the reference-core cost model: 1.0 means each
	// core matches the calibrated reference, 1.2 is 20% faster.
	SpeedFactor float64
	// State is the lifecycle state.
	State ServerState
}

// Capacity returns the server's compute capacity in reference-core
// fractions (cores × speed) when it can accept work, else 0.
func (s Server) Capacity() float64 {
	if s.State != Active {
		return 0
	}
	return float64(s.Cores) * s.SpeedFactor
}

// Validate checks the static fields.
func (s Server) Validate() error {
	if s.Cores < 1 {
		return fmt.Errorf("cluster: server %d has %d cores: %w", s.ID, s.Cores, ErrBadTransition)
	}
	if s.SpeedFactor <= 0 {
		return fmt.Errorf("cluster: server %d speed %v: %w", s.ID, s.SpeedFactor, ErrBadTransition)
	}
	return nil
}

// Cluster is the mutable pool membership. It is safe for concurrent use;
// the controller mutates it from its control loop while monitors read it.
//
// One RWMutex guards the servers. A mutation sets the telemetry gauges
// (state counts, active capacity) before it releases the lock, so the
// gauges always show the state after the latest mutation, and every read
// is a consistent cut of the pool.
type Cluster struct {
	mu      sync.RWMutex
	servers map[ServerID]*Server

	tel *clusterTelemetry // nil until SetTelemetry
}

// clusterTelemetry holds the membership metrics: one gauge per lifecycle
// state plus a transition counter, pre-resolved so mutations only touch
// atomic handles.
type clusterTelemetry struct {
	states      [4]*telemetry.Gauge // indexed by ServerState
	transitions *telemetry.Counter
	capacity    *telemetry.Gauge // active capacity in reference-core milli-units
}

// SetTelemetry attaches a registry: the cluster then maintains
// cluster.servers_<state> gauges, a cluster.state_transitions counter, and a
// cluster.active_capacity_millicores gauge across membership mutations. Pass
// nil to detach.
func (c *Cluster) SetTelemetry(reg *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == nil {
		c.tel = nil
		return
	}
	c.tel = &clusterTelemetry{
		transitions: reg.Counter("cluster.state_transitions"),
		capacity:    reg.Gauge("cluster.active_capacity_millicores"),
	}
	for st := Standby; st <= Failed; st++ {
		c.tel.states[st] = reg.Gauge("cluster.servers_" + st.String())
	}
	c.publishTelemetry()
}

// tally counts the servers per state and sums the active capacity; the
// caller holds c.mu.
func (c *Cluster) tally() (counts [4]int, capacity float64) {
	for _, s := range c.servers {
		counts[s.State]++
		capacity += s.Capacity()
	}
	return counts, capacity
}

// publishTelemetry sets the gauges from a tally of the pool; the caller
// holds c.mu.
func (c *Cluster) publishTelemetry() {
	if c.tel == nil {
		return
	}
	counts, capacity := c.tally()
	for st := Standby; st <= Failed; st++ {
		c.tel.states[st].Set(int64(counts[st]))
	}
	c.tel.capacity.Set(int64(math.Round(capacity * 1000)))
}

// New returns an empty cluster.
func New() *Cluster {
	return &Cluster{servers: make(map[ServerID]*Server)}
}

// Add registers a server (in its given state). Re-adding an existing ID is
// an error.
func (c *Cluster) Add(s Server) error {
	if err := s.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.servers[s.ID]; ok {
		return fmt.Errorf("cluster: server %d already present: %w", s.ID, ErrBadTransition)
	}
	cp := s
	c.servers[s.ID] = &cp
	c.publishTelemetry()
	return nil
}

// Get returns a snapshot of the server.
func (c *Cluster) Get(id ServerID) (Server, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.servers[id]
	if !ok {
		return Server{}, fmt.Errorf("cluster: id %d: %w", id, ErrNoSuchServer)
	}
	return *s, nil
}

// SetState transitions a server's lifecycle state. A failed server may only
// return to Standby (a repair).
func (c *Cluster) SetState(id ServerID, st ServerState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.servers[id]
	if !ok {
		return fmt.Errorf("cluster: id %d: %w", id, ErrNoSuchServer)
	}
	if s.State == Failed && st != Standby {
		return fmt.Errorf("cluster: server %d is failed: %w", id, ErrBadTransition)
	}
	c.transition(s, st)
	return nil
}

// transition moves s to st and republishes the gauges; the caller holds
// c.mu.
func (c *Cluster) transition(s *Server, st ServerState) {
	if s.State != st && c.tel != nil {
		c.tel.transitions.Inc(0)
	}
	s.State = st
	c.publishTelemetry()
}

// Fail marks a server failed.
func (c *Cluster) Fail(id ServerID) error { return c.SetState(id, Failed) }

// Servers returns snapshots of all servers sorted by ID (deterministic
// iteration for placement and tests).
func (c *Cluster) Servers() []Server {
	c.mu.RLock()
	out := make([]Server, 0, len(c.servers))
	for _, s := range c.servers {
		out = append(out, *s)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// InState returns the servers currently in the given state, sorted by ID.
func (c *Cluster) InState(st ServerState) []Server {
	var out []Server
	for _, s := range c.Servers() {
		if s.State == st {
			out = append(out, s)
		}
	}
	return out
}

// Counts returns the number of servers per state.
func (c *Cluster) Counts() map[ServerState]int {
	c.mu.RLock()
	counts, _ := c.tally()
	c.mu.RUnlock()
	m := make(map[ServerState]int)
	for st, n := range counts {
		if n > 0 {
			m[ServerState(st)] = n
		}
	}
	return m
}

// Uniform builds a cluster of n identical servers (IDs 0..n-1), the first
// nActive of them Active and the rest Standby.
func Uniform(n, nActive, cores int, speed float64) (*Cluster, error) {
	if nActive > n {
		return nil, fmt.Errorf("cluster: %d active > %d total: %w", nActive, n, ErrBadTransition)
	}
	c := New()
	for i := 0; i < n; i++ {
		st := Standby
		if i < nActive {
			st = Active
		}
		if err := c.Add(Server{ID: ServerID(i), Cores: cores, SpeedFactor: speed, State: st}); err != nil {
			return nil, err
		}
	}
	return c, nil
}
