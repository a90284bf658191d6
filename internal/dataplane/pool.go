package dataplane

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pran/internal/metrics"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// Pool scheduling policies.
const (
	// EDF processes the task with the earliest deadline first — PRAN's
	// default, which maximizes schedulable utilization.
	EDF SchedPolicy = iota
	// FIFO processes tasks in arrival order — the baseline E5 compares
	// against.
	FIFO
)

// SchedPolicy selects the worker pool's queueing discipline.
type SchedPolicy int

// String implements fmt.Stringer.
func (p SchedPolicy) String() string {
	if p == FIFO {
		return "fifo"
	}
	return "edf"
}

// Sentinel errors.
var (
	// ErrAbandoned marks tasks dropped unprocessed because their deadline
	// passed while queued (the receiver will NACK; HARQ retransmits).
	ErrAbandoned = errors.New("dataplane: task abandoned past deadline")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("dataplane: pool closed")
)

// Config parameterizes a worker pool. A Config that sets only Workers,
// Policy and DeadlineScale runs the default decode path.
type Config struct {
	// Workers is the number of processing goroutines (≈ dedicated cores).
	Workers int
	// Decode is the decode pipeline every worker's processor is built from;
	// the zero value is the default path (int16 lockstep turbo behind the
	// fused vector front-end). A worker decodes a task's code blocks on its
	// own goroutine, so a fully busy pool demands Workers cores. A cost model
	// prices this pool when its Profile equals this field
	// (cluster.CostModel.WithProfile).
	Decode phy.DecodeProfile
	// Policy selects EDF or FIFO dispatch.
	Policy SchedPolicy
	// DeadlineScale stretches the HARQ budget to compensate for the DSP's
	// throughput on this host (see the package comment). 1.0 means the real 3 ms
	// LTE budget. Typical measured-mode experiments use the value returned
	// by CalibrateDeadlineScale.
	DeadlineScale float64
	// AbandonLate, when true, drops tasks whose deadline already passed
	// instead of decoding them anyway (PRAN behaviour: a late UL decode is
	// useless — the NACK window has closed).
	AbandonLate bool
	// Degrade parameterizes the compute-aware degradation ladder (see
	// DegradeConfig and cluster.DegradationLevel). The ladder's per-cell
	// level words exist on every pool, all at cluster.DegradeNone until
	// something sets one; the automatic headroom controller runs only when
	// Degrade.Enable is true.
	Degrade DegradeConfig
	// Telemetry selects the registry this pool records runtime metrics
	// into; nil means the process-wide telemetry.Default(). Telemetry is
	// default-on — the record path is lock-free and allocation-free, and
	// experiment E14 pins its overhead below 1% — so measured runs may
	// leave it enabled. Set DisableTelemetry to opt out entirely.
	Telemetry *telemetry.Registry
	// DisableTelemetry turns off all runtime instrumentation for this
	// pool (Pool.Telemetry then returns nil).
	DisableTelemetry bool
	// FaultHook, when non-nil, runs at the start of every task execution
	// on the worker's goroutine — the fault-injection point (see
	// internal/faultinject.WorkerFault). Returning an error fails the task
	// as a simulated worker crash; sleeping inside emulates a stall. Nil
	// (the default) costs nothing.
	FaultHook func(worker int) error
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("dataplane: %d workers: %w", c.Workers, phy.ErrBadParameter)
	}
	if err := c.Decode.Validate(); err != nil {
		return fmt.Errorf("dataplane: %w", err)
	}
	if c.DeadlineScale <= 0 {
		return fmt.Errorf("dataplane: deadline scale %v: %w", c.DeadlineScale, phy.ErrBadParameter)
	}
	return c.Degrade.validate()
}

// Budget returns the scaled per-task processing budget.
func (c Config) Budget() time.Duration {
	return time.Duration(float64(HARQBudget) * c.DeadlineScale)
}

// Stats aggregates pool-level counters. Retrieve a snapshot with
// Pool.Stats.
type Stats struct {
	// Submitted, Completed, Abandoned, CRCFailures count tasks.
	Submitted, Completed, Abandoned, CRCFailures uint64
	// DeadlineMisses counts tasks finishing after their deadline
	// (including abandoned ones).
	DeadlineMisses uint64
	// Latency summarizes enqueue-to-finish latency in seconds.
	Latency metrics.Summary
	// ProcTime summarizes pure processing time in seconds.
	ProcTime metrics.Summary
}

// MissRate returns the fraction of submitted tasks that missed.
func (s Stats) MissRate() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.DeadlineMisses) / float64(s.Submitted)
}

// Pool is the PRAN data-plane worker pool: N workers pulling UE-decode tasks
// from a shared deadline-ordered queue and running the real uplink DSP.
// Create with NewPool, feed with Submit, stop with Close.
type Pool struct {
	cfg Config
	tel *poolTelemetry // nil when Config.DisableTelemetry
	deg *degradeState

	mu   sync.Mutex
	cond *sync.Cond // wakes workers: signaled per Submit, broadcast on Close
	// idle wakes Drain callers when the pool quiesces. It must be distinct
	// from cond, which Submit signals to wake exactly one *worker* — a
	// drainer parked on the same condition variable could consume that
	// signal and strand the task until the next submission.
	idle     *sync.Cond
	queue    taskQueue
	closed   bool
	stats    Stats
	inflight int

	wg sync.WaitGroup
}

// NewPool starts the workers.
func NewPool(cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg}
	if !cfg.DisableTelemetry {
		reg := cfg.Telemetry
		if reg == nil {
			reg = telemetry.Default()
		}
		p.tel = newPoolTelemetry(reg, cfg.Workers)
	}
	p.cond = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	p.queue.fifo = cfg.Policy == FIFO
	p.deg = newDegradeState(p)
	if cfg.Degrade.Enable {
		go p.deg.run()
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		w := newWorker(p, i)
		go w.run()
	}
	return p, nil
}

// Config returns the pool's configuration.
func (p *Pool) Config() Config { return p.cfg }

// Telemetry returns the registry this pool records into, or nil when
// instrumentation is disabled. Scrape it with Telemetry().Snapshot().
func (p *Pool) Telemetry() *telemetry.Registry {
	if p.tel == nil {
		return nil
	}
	return p.tel.reg
}

// Submit enqueues a task. The task's Deadline must already be set (use
// Config.Budget from its Enqueued time); OnDone fires on a worker goroutine
// when the task completes or is abandoned.
func (p *Pool) Submit(t *Task) error {
	// Freeze the cell's current ladder level into the task: the degrade
	// knobs a decode runs with are decided at submission, so a mid-queue
	// transition never splits one task's decisions.
	t.Degrade = p.deg.level(t.Cell)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.stats.Submitted++
	p.queue.push(t)
	depth := p.queue.Len()
	p.mu.Unlock()
	if p.tel != nil {
		p.tel.submitted.Inc(p.tel.driverShard)
		p.tel.queueDepth.Set(int64(depth))
	}
	p.cond.Signal()
	return nil
}

// QueueLen returns the number of tasks waiting (not yet picked up).
func (p *Pool) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue.Len()
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Drain blocks until the queue is empty and all in-flight tasks finished.
// It is event-driven: drainers park on the pool's idle condition variable
// and the last finishing task broadcasts it, so there is no polling loop on
// this path.
func (p *Pool) Drain() {
	p.mu.Lock()
	for p.queue.Len() > 0 || p.inflight > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// Close stops accepting tasks, waits for queued work to finish, and joins
// the workers.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	if p.cfg.Degrade.Enable {
		close(p.deg.stop)
		<-p.deg.done
	}
	return nil
}

// next blocks for the next task or returns nil when the pool is closed and
// drained.
func (p *Pool) next() *Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.queue.Len() > 0 {
			t := p.queue.pop()
			p.inflight++
			if p.tel != nil {
				p.tel.queueDepth.Set(int64(p.queue.Len()))
			}
			return t
		}
		if p.closed {
			return nil
		}
		p.cond.Wait()
	}
}

// finish records completion accounting for a task. shard is the finishing
// worker's ID, used as the telemetry shard so per-worker breakdowns line up.
func (p *Pool) finish(t *Task, shard int) {
	p.mu.Lock()
	p.inflight--
	switch {
	case errors.Is(t.Err, ErrAbandoned):
		p.stats.Abandoned++
	case errors.Is(t.Err, phy.ErrCRC):
		p.stats.CRCFailures++
		p.stats.Completed++
	case t.Err == nil:
		p.stats.Completed++
	default:
		p.stats.Completed++
	}
	if t.Missed() {
		p.stats.DeadlineMisses++
	}
	p.stats.Latency.Observe(t.Latency().Seconds())
	if !t.Started.IsZero() {
		p.stats.ProcTime.Observe(t.Finished.Sub(t.Started).Seconds())
	}
	if p.queue.Len() == 0 && p.inflight == 0 {
		p.idle.Broadcast()
	}
	p.mu.Unlock()
	p.deg.observe(t)
	if tel := p.tel; tel != nil {
		switch {
		case errors.Is(t.Err, ErrAbandoned):
			tel.abandoned.Inc(shard)
		case errors.Is(t.Err, phy.ErrCRC):
			tel.crcFail.Inc(shard)
			tel.completed.Inc(shard)
		default:
			tel.completed.Inc(shard)
		}
		if t.Missed() {
			tel.misses.Inc(shard)
		}
		tel.latency.ObserveDuration(shard, t.Latency())
		if !t.Started.IsZero() {
			busy := t.Finished.Sub(t.Started)
			tel.procTime.ObserveDuration(shard, busy)
			tel.busyNanos.Add(shard, uint64(busy.Nanoseconds()))
		}
	}
	if t.OnDone != nil {
		t.OnDone(t)
	}
	if t.softState != nil {
		// Hand the HARQ soft buffer back to its manager: the atomic store
		// is the happens-before edge that lets the driver goroutine touch
		// the buffer again (reset, reuse, or migration serialization).
		t.softState.busy.Store(false)
		t.softState = nil
	}
}
