package dataplane

import (
	"fmt"
	"sync/atomic"
	"time"

	"pran/internal/cluster"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// Headroom-loop thresholds. Depths are queued tasks per worker; slacks are
// fractions of the task budget remaining at completion.
const (
	// degradeAlpha is the EWMA smoothing factor for both headroom signals.
	degradeAlpha = 0.3
	// degradeRaiseDepth raises the level when the smoothed queue depth
	// exceeds this many waiting tasks per worker; degradeLowerDepth is the
	// bar for lowering.
	degradeRaiseDepth = 3.0
	degradeLowerDepth = 0.5
	// degradeRaiseSlack raises the level when tasks finish with less than
	// this fraction of their budget left on average; degradeLowerSlack is
	// the bar for lowering.
	degradeRaiseSlack = 0.1
	degradeLowerSlack = 0.35
	// degradeDwell is the default post-transition hold, in loop periods.
	degradeDwell = 2
)

// DegradeConfig parameterizes the pool's compute-aware degradation ladder
// (see cluster.DegradationLevel for what each rung sheds). Every pool has one
// level word, at cluster.DegradeNone until the headroom loop moves it, and
// the loop runs only when Enable is true.
//
// The loop is a deliberately simple hysteresis controller: every Period it
// folds the pool's queue depth and the completed tasks' deadline slack into
// EWMAs, raises the level one rung when either signal says the pool is out
// of headroom (deep queue OR thin slack), and lowers one rung only when
// both say it is comfortable (shallow queue AND fat slack). DwellPeriods of
// quiet follow every transition so the loop cannot flap faster than the
// signals settle.
type DegradeConfig struct {
	// Enable starts the headroom loop. Without it the level stays at
	// cluster.DegradeNone.
	Enable bool
	// Period is the loop's sampling interval; 0 means half the pool's
	// scaled task budget (Config.Budget()/2), tracking the deadline scale
	// so the loop reacts within a few task lifetimes at any calibration.
	Period time.Duration
	// DwellPeriods is the post-transition hold, in loop periods; 0 means 2.
	DwellPeriods int
}

// withDefaults returns the config with zero fields replaced by defaults.
// budget is the pool's scaled task budget (for the period default).
func (c DegradeConfig) withDefaults(budget time.Duration) DegradeConfig {
	if c.Period == 0 {
		c.Period = budget / 2
	}
	if c.Period < 100*time.Microsecond {
		c.Period = 100 * time.Microsecond
	}
	if c.DwellPeriods == 0 {
		c.DwellPeriods = degradeDwell
	}
	return c
}

// validate checks the raw configuration.
func (c DegradeConfig) validate() error {
	if c.Period < 0 {
		return fmt.Errorf("dataplane: negative degrade period %v: %w", c.Period, phy.ErrBadParameter)
	}
	if c.DwellPeriods < 0 {
		return fmt.Errorf("dataplane: negative degrade dwell %d: %w", c.DwellPeriods, phy.ErrBadParameter)
	}
	return nil
}

// degradeState is the pool's degradation ladder: the pool-wide level word
// plus the optional headroom-loop goroutine.
//
// Ownership: the level lives in one atomic word. The loop goroutine (and,
// in this package's tests, setLevel) writes it; the driver goroutine (Submit's task
// stamping, the cell ingest HARQ-shed decision) reads it with one atomic
// load. Workers never touch it — they see the level frozen into
// Task.Degrade at submission, so a mid-queue transition never splits a
// task's own decode decisions.
type degradeState struct {
	cfg   DegradeConfig
	pool  *Pool
	level atomic.Int32

	// Completion-slack accumulator, fed by Pool.finish on the worker
	// goroutines and drained (Swap 0) by the loop each period.
	slackNanos atomic.Int64
	slackCount atomic.Int64

	// Loop-goroutine-local state.
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

// set stores a valid level and mirrors it to the level gauge.
func (d *degradeState) set(lvl cluster.DegradationLevel) {
	d.level.Store(int32(lvl))
	if d.levelGauge != nil {
		d.levelGauge.Set(int64(lvl))
	}
}

// observe folds one finished task's deadline slack into the accumulator.
// Called from Pool.finish on worker goroutines; two atomic adds.
func (d *degradeState) observe(t *Task) {
	d.slackNanos.Add(int64(t.Deadline.Sub(t.Finished)))
	d.slackCount.Add(1)
}

// run is the headroom loop (started by NewPool when DegradeConfig.Enable is
// set; stopped by Pool.Close).
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

// step runs one loop period: sample, smooth, and possibly move one rung.
// Split from run for testability.
func (d *degradeState) step() {
	const a = degradeAlpha
	depth := float64(d.pool.QueueLen()) / float64(d.pool.cfg.Workers)
	d.ewmaDepth = a*depth + (1-a)*d.ewmaDepth
	// Nanos that arrive without their count (a task between observe's two
	// adds) stay in the accumulator and are averaged with that count next
	// period.
	if n := d.slackCount.Swap(0); n > 0 {
		slack := float64(d.slackNanos.Swap(0)) / float64(n) / float64(d.pool.cfg.Budget())
		d.ewmaSlack = a*slack + (1-a)*d.ewmaSlack
	} else if depth == 0 {
		// No completions this period: decay slack toward "plenty" only if
		// the queue is also empty (an empty idle pool has headroom; a full
		// pool with no completions is the opposite).
		d.ewmaSlack = a*1 + (1-a)*d.ewmaSlack
	}
	if d.dwell > 0 {
		d.dwell--
		return
	}
	cur := cluster.DegradationLevel(d.level.Load())
	switch {
	case (d.ewmaDepth > degradeRaiseDepth || d.ewmaSlack < degradeRaiseSlack) && cur < cluster.MaxDegradationLevel:
		d.set(cur + 1)
		if d.raises != nil {
			d.raises.Inc(d.telShard)
		}
		d.dwell = d.cfg.DwellPeriods
	case d.ewmaDepth < degradeLowerDepth && d.ewmaSlack > degradeLowerSlack && cur > cluster.DegradeNone:
		d.set(cur - 1)
		if d.lowers != nil {
			d.lowers.Inc(d.telShard)
		}
		d.dwell = d.cfg.DwellPeriods
	}
}

// Level returns the pool's current degradation level. Safe from any
// goroutine.
func (p *Pool) Level() cluster.DegradationLevel {
	return cluster.DegradationLevel(p.deg.level.Load())
}

// setLevel sets the pool's degradation level, the tests' way to pin a rung.
// With the headroom loop enabled the loop moves on from it at its next
// transition. Safe from any goroutine; tasks already queued keep the level
// they were stamped with.
func (p *Pool) setLevel(lvl cluster.DegradationLevel) error {
	if err := lvl.Validate(); err != nil {
		return err
	}
	p.deg.set(lvl)
	return nil
}
