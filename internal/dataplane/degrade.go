package dataplane

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pran/internal/cluster"
	"pran/internal/frame"
	"pran/internal/telemetry"
)

// Default headroom-controller parameters, applied to zero DegradeConfig
// fields. Depths are queued tasks per worker; slacks are fractions of the
// task budget remaining at completion.
const (
	// DefaultDegradeAlpha is the EWMA smoothing factor for the headroom
	// signals.
	DefaultDegradeAlpha = 0.3
	// DefaultDegradeRaiseDepth raises the level when the smoothed queue
	// depth exceeds this many waiting tasks per worker.
	DefaultDegradeRaiseDepth = 3.0
	// DefaultDegradeLowerDepth is the queue-depth bar for lowering.
	DefaultDegradeLowerDepth = 0.5
	// DefaultDegradeRaiseSlack raises the level when tasks finish with less
	// than this fraction of their budget left on average.
	DefaultDegradeRaiseSlack = 0.1
	// DefaultDegradeLowerSlack is the slack bar for lowering.
	DefaultDegradeLowerSlack = 0.35
	// DefaultDegradeDwell is the number of controller periods a transition
	// holds before the next one is considered.
	DefaultDegradeDwell = 2
)

// DegradeConfig parameterizes the pool's compute-aware degradation ladder
// (see cluster.DegradationLevel for what each rung sheds). The ladder's
// per-cell level words exist on every pool — SetCellLevel always works — but
// the automatic headroom controller only runs when Enable is true.
//
// The controller is a deliberately simple hysteresis loop: every Period it
// folds the pool's queue depth and the completed tasks' deadline slack into
// EWMAs, raises the level one rung when either signal says the pool is out
// of headroom (deep queue OR thin slack), and lowers one rung only when
// both say it is comfortable (shallow queue AND fat slack). DwellPeriods of
// quiet follow every transition so the loop cannot flap faster than the
// signals settle.
type DegradeConfig struct {
	// Enable starts the automatic headroom controller. Without it the
	// ladder is manual-only (Pool.SetCellLevel).
	Enable bool
	// MaxLevel bounds how deep the automatic controller degrades
	// (0 means cluster.MaxDegradationLevel). Manual SetCellLevel is not
	// bounded by it.
	MaxLevel cluster.DegradationLevel
	// Period is the controller's sampling interval; 0 means half the
	// pool's scaled task budget (Config.Budget()/2), tracking the
	// deadline scale so the loop reacts within a few task lifetimes at
	// any calibration.
	Period time.Duration
	// Alpha is the EWMA smoothing factor in (0, 1]; 0 means
	// DefaultDegradeAlpha.
	Alpha float64
	// RaiseDepth / LowerDepth are the queue-depth thresholds in waiting
	// tasks per worker; 0 means the defaults above.
	RaiseDepth, LowerDepth float64
	// RaiseSlack / LowerSlack are the completion-slack thresholds as
	// fractions of the task budget. Zero values mean the defaults above
	// (a genuinely zero RaiseSlack — raise only when tasks finish past
	// deadline — is expressible as a tiny negative value).
	RaiseSlack, LowerSlack float64
	// DwellPeriods is the post-transition hold, in controller periods;
	// 0 means DefaultDegradeDwell.
	DwellPeriods int
}

// withDefaults returns the config with zero fields replaced by defaults.
// budget is the pool's scaled task budget (for the period default).
func (c DegradeConfig) withDefaults(budget time.Duration) DegradeConfig {
	if c.MaxLevel == 0 {
		c.MaxLevel = cluster.MaxDegradationLevel
	}
	if c.Period == 0 {
		c.Period = budget / 2
	}
	if c.Period < 100*time.Microsecond {
		c.Period = 100 * time.Microsecond
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultDegradeAlpha
	}
	if c.RaiseDepth == 0 {
		c.RaiseDepth = DefaultDegradeRaiseDepth
	}
	if c.LowerDepth == 0 {
		c.LowerDepth = DefaultDegradeLowerDepth
	}
	if c.RaiseSlack == 0 {
		c.RaiseSlack = DefaultDegradeRaiseSlack
	}
	if c.LowerSlack == 0 {
		c.LowerSlack = DefaultDegradeLowerSlack
	}
	if c.DwellPeriods == 0 {
		c.DwellPeriods = DefaultDegradeDwell
	}
	return c
}

// validate checks the raw configuration.
func (c DegradeConfig) validate() error {
	if err := c.MaxLevel.Validate(); err != nil {
		return fmt.Errorf("dataplane: degrade max level: %w", err)
	}
	if c.Period < 0 {
		return fmt.Errorf("dataplane: negative degrade period %v: %w", c.Period, errBadDegrade)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("dataplane: degrade EWMA alpha %v outside (0, 1]: %w", c.Alpha, errBadDegrade)
	}
	if c.RaiseDepth < 0 || c.LowerDepth < 0 {
		return fmt.Errorf("dataplane: negative degrade depth threshold: %w", errBadDegrade)
	}
	if c.DwellPeriods < 0 {
		return fmt.Errorf("dataplane: negative degrade dwell %d: %w", c.DwellPeriods, errBadDegrade)
	}
	d := c.withDefaults(HARQBudget)
	if d.LowerDepth >= d.RaiseDepth {
		return fmt.Errorf("dataplane: degrade lower depth %v not below raise depth %v: %w", d.LowerDepth, d.RaiseDepth, errBadDegrade)
	}
	if d.LowerSlack <= d.RaiseSlack {
		return fmt.Errorf("dataplane: degrade lower slack %v not above raise slack %v: %w", d.LowerSlack, d.RaiseSlack, errBadDegrade)
	}
	return nil
}

// errBadDegrade marks invalid degradation configurations.
var errBadDegrade = fmt.Errorf("invalid degradation config")

// degradeState is the pool's degradation ladder: per-cell level words plus
// the optional headroom-controller goroutine.
//
// Ownership: each cell's level lives in one atomic word. The controller
// goroutine (or any SetCellLevel caller) writes it; the driver goroutine
// (Submit's task stamping, the cell ingest HARQ-shed decision) reads it
// with atomic loads. Workers never touch the words — they see the level
// frozen into Task.Degrade at submission, so a mid-queue transition never
// splits a task's own decode decisions. The registry map itself is guarded
// by mu (registration is rare: once per cell).
type degradeState struct {
	cfg  DegradeConfig
	pool *Pool

	mu     sync.RWMutex
	cells  map[frame.CellID]*atomic.Int32
	gauges map[frame.CellID]*telemetry.Gauge
	// target is the automatic controller's current pool-wide level; newly
	// registered cells inherit it.
	target atomic.Int32

	// Completion-slack accumulator, fed by Pool.finish on the worker
	// goroutines and drained (Swap 0) by the controller each period.
	slackNanos atomic.Int64
	slackCount atomic.Int64

	// Controller-goroutine-local state.
	ewmaDepth float64
	ewmaSlack float64
	dwell     int

	// Telemetry handles (nil when the pool's telemetry is off).
	levelGauge *telemetry.Gauge
	raises     *telemetry.Counter
	lowers     *telemetry.Counter
	telShard   int

	stop chan struct{}
	done chan struct{}
}

// newDegradeState builds the ladder for a pool (cfg already validated).
func newDegradeState(p *Pool) *degradeState {
	d := &degradeState{
		cfg:       p.cfg.Degrade.withDefaults(p.cfg.Budget()),
		pool:      p,
		cells:     make(map[frame.CellID]*atomic.Int32),
		gauges:    make(map[frame.CellID]*telemetry.Gauge),
		ewmaSlack: 1, // start from "full headroom" so an idle pool never raises
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if tel := p.tel; tel != nil {
		d.levelGauge = tel.reg.Gauge(MetricDegradeLevel)
		d.raises = tel.reg.Counter(MetricDegradeRaises)
		d.lowers = tel.reg.Counter(MetricDegradeLowers)
		d.telShard = tel.driverShard
	}
	return d
}

// level returns cell's current ladder level, registering the cell on first
// sight (new cells inherit the controller's pool-wide target).
func (d *degradeState) level(cell frame.CellID) cluster.DegradationLevel {
	d.mu.RLock()
	w := d.cells[cell]
	d.mu.RUnlock()
	if w == nil {
		w = d.register(cell)
	}
	return cluster.DegradationLevel(w.Load()).Clamp()
}

// register creates (or returns) cell's level word.
func (d *degradeState) register(cell frame.CellID) *atomic.Int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w, ok := d.cells[cell]; ok {
		return w
	}
	w := new(atomic.Int32)
	w.Store(d.target.Load())
	d.cells[cell] = w
	if tel := d.pool.tel; tel != nil {
		g := tel.reg.Gauge(CellMetricDegradeLevel(cell))
		g.Set(int64(w.Load()))
		d.gauges[cell] = g
	}
	return w
}

// set stores a level for one cell (registering it if needed) and mirrors it
// to the cell's gauge.
func (d *degradeState) set(cell frame.CellID, lvl cluster.DegradationLevel) {
	lvl = lvl.Clamp()
	w := d.register(cell)
	w.Store(int32(lvl))
	d.mu.RLock()
	g := d.gauges[cell]
	d.mu.RUnlock()
	if g != nil {
		g.Set(int64(lvl))
	}
}

// setAll moves every registered cell (and the pool-wide target) to lvl.
func (d *degradeState) setAll(lvl cluster.DegradationLevel) {
	lvl = lvl.Clamp()
	d.target.Store(int32(lvl))
	if d.levelGauge != nil {
		d.levelGauge.Set(int64(lvl))
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for cell, w := range d.cells {
		w.Store(int32(lvl))
		if g := d.gauges[cell]; g != nil {
			g.Set(int64(lvl))
		}
	}
}

// snapshot returns the registered cells' current levels.
func (d *degradeState) snapshot() map[frame.CellID]cluster.DegradationLevel {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[frame.CellID]cluster.DegradationLevel, len(d.cells))
	for cell, w := range d.cells {
		out[cell] = cluster.DegradationLevel(w.Load()).Clamp()
	}
	return out
}

// observe folds one finished task's deadline slack into the accumulator.
// Called from Pool.finish on worker goroutines; two atomic adds.
func (d *degradeState) observe(t *Task) {
	d.slackNanos.Add(int64(t.Deadline.Sub(t.Finished)))
	d.slackCount.Add(1)
}

// run is the headroom controller loop (started by NewPool when
// DegradeConfig.Enable is set; stopped by Pool.Close).
func (d *degradeState) run() {
	defer close(d.done)
	tick := time.NewTicker(d.cfg.Period)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			d.step()
		}
	}
}

// step runs one controller period: sample, smooth, and possibly move one
// rung. Split from run for testability.
func (d *degradeState) step() {
	a := d.cfg.Alpha
	depth := float64(d.pool.QueueLen()) / float64(d.pool.cfg.Workers)
	d.ewmaDepth = a*depth + (1-a)*d.ewmaDepth
	if n := d.slackCount.Swap(0); n > 0 {
		slack := float64(d.slackNanos.Swap(0)) / float64(n) / float64(d.pool.cfg.Budget())
		d.ewmaSlack = a*slack + (1-a)*d.ewmaSlack
	} else {
		d.slackNanos.Store(0)
		// No completions this period: decay slack toward "plenty" only if
		// the queue is also empty (an empty idle pool has headroom; a full
		// pool with no completions is the opposite).
		if depth == 0 {
			d.ewmaSlack = a*1 + (1-a)*d.ewmaSlack
		}
	}
	if d.dwell > 0 {
		d.dwell--
		return
	}
	cur := cluster.DegradationLevel(d.target.Load())
	switch {
	case (d.ewmaDepth > d.cfg.RaiseDepth || d.ewmaSlack < d.cfg.RaiseSlack) && cur < d.cfg.MaxLevel:
		d.setAll(cur + 1)
		if d.raises != nil {
			d.raises.Inc(d.telShard)
		}
		d.dwell = d.cfg.DwellPeriods
	case d.ewmaDepth < d.cfg.LowerDepth && d.ewmaSlack > d.cfg.LowerSlack && cur > cluster.DegradeNone:
		d.setAll(cur - 1)
		if d.lowers != nil {
			d.lowers.Inc(d.telShard)
		}
		d.dwell = d.cfg.DwellPeriods
	}
}

// CellLevel returns the cell's current degradation level. Safe from any
// goroutine.
func (p *Pool) CellLevel(cell frame.CellID) cluster.DegradationLevel {
	return p.deg.level(cell)
}

// SetCellLevel pins one cell's degradation level — the manual/controller-
// driven path (the cluster controller uses it to run a hot cell degraded
// rather than shed it). With the automatic headroom controller enabled the
// pin lasts until the controller's next transition. Safe from any goroutine;
// tasks already queued keep the level they were stamped with.
func (p *Pool) SetCellLevel(cell frame.CellID, lvl cluster.DegradationLevel) error {
	if err := lvl.Validate(); err != nil {
		return err
	}
	p.deg.set(cell, lvl)
	return nil
}

// CellLevels returns a snapshot of every registered cell's degradation
// level.
func (p *Pool) CellLevels() map[frame.CellID]cluster.DegradationLevel {
	return p.deg.snapshot()
}

// DegradeTarget returns the automatic controller's current pool-wide level.
func (p *Pool) DegradeTarget() cluster.DegradationLevel {
	return cluster.DegradationLevel(p.deg.target.Load()).Clamp()
}
