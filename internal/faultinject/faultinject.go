// Package faultinject is PRAN's fault-injection layer: a scriptable,
// seedable wrapper around the control-plane transport (net.Conn) plus hooks
// for the data plane, used by tests and by experiment E15 to measure live
// failure recovery. All faults are off by default — a freshly constructed
// Injector passes traffic through unchanged — and every stochastic decision
// draws from one seeded source so runs are reproducible.
//
// Transport faults operate at write granularity. The control protocol
// frames every message in a single Write (see ctrlproto.Conn.WriteMessage),
// so dropping one Write drops exactly one protocol message rather than
// shearing a frame in half; a real lossy network below TCP would retransmit,
// so message-level loss models the *observable* failure (silence) without
// corrupting the stream.
//
// Partitions may be symmetric (Partition cuts both directions) or one-sided
// (PartitionDirs cuts only agent→controller writes or only controller→agent
// reads), modelling half-open network failures where one peer still hears
// the other — the hardest case for lease-based failure detection.
//
// Concurrency: an Injector is safe for concurrent use from any goroutine —
// wrapped connections consult it under its mutex on each read/write, and the
// scripting methods (Partition, PartitionDirs, Heal, SetDropRate, SetDelay)
// may be called while connections are active. Reads blocked on a
// partition park on a generation channel and wake on Heal or connection
// close.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrPartitioned is returned by Dial while the injector is partitioned and
// by reads on connections closed during a partition.
var ErrPartitioned = errors.New("faultinject: network partitioned")

// faultCounts counts the faults an injector has delivered; the package's
// tests read them.
type faultCounts struct {
	// DroppedWrites counts writes swallowed (partition or random drop).
	DroppedWrites uint64
	// DelayedWrites counts writes that slept before transmission.
	DelayedWrites uint64
	// RefusedDials counts Dial calls rejected during a partition.
	RefusedDials uint64
	// BlockedReads counts reads that parked on an inbound partition (each
	// blocking episode counts once, however long it lasts).
	BlockedReads uint64
}

// Injector owns the fault state shared by every connection it wraps.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	drop  float64       // probability a write is silently swallowed
	delay time.Duration // added latency per write

	// partInbound cuts controller→agent delivery (reads on wrapped conns
	// park); partOutbound cuts agent→controller delivery (writes are
	// swallowed). Partition() sets both — a full two-way cut — while
	// PartitionDirs can cut one side only, modelling the half-open failures
	// (e.g. asymmetric routing or firewall state loss) that make failure
	// detection hard: one peer still hears the other.
	partInbound  bool
	partOutbound bool
	// healCh is closed whenever the inbound partition lifts; readers blocked
	// on the partition wait on the channel that was current when they parked.
	healCh chan struct{}

	stats faultCounts
}

// New returns an injector with all faults off, seeded for deterministic
// drop decisions.
func New(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		healCh: make(chan struct{}),
	}
}

// Dial connects and returns a net.Conn whose traffic is subject to the
// injector's current faults. While partitioned it fails
// immediately with ErrPartitioned — a partitioned host cannot open new
// connections either.
func (in *Injector) Dial(network, addr string) (net.Conn, error) {
	in.mu.Lock()
	if in.partInbound || in.partOutbound {
		// Opening a connection needs both directions (the ctrlproto handshake
		// is a write followed by a read), so either cut refuses the dial.
		in.stats.RefusedDials++
		in.mu.Unlock()
		return nil, fmt.Errorf("faultinject: dial %s: %w", addr, ErrPartitioned)
	}
	in.mu.Unlock()
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: nc, inj: in}, nil
}

// SetDropRate sets the probability in [0, 1] that a write is silently
// swallowed.
func (in *Injector) SetDropRate(p float64) {
	in.mu.Lock()
	in.drop = p
	in.mu.Unlock()
}

// SetDelay adds fixed latency to every write.
func (in *Injector) SetDelay(d time.Duration) {
	in.mu.Lock()
	in.delay = d
	in.mu.Unlock()
}

// Partition cuts the network both ways: subsequent writes are swallowed,
// reads block until Heal (or the connection closes), and Dial fails.
// Idempotent.
func (in *Injector) Partition() {
	in.PartitionDirs(true, true)
}

// PartitionDirs sets the per-direction partition state: inbound cuts
// controller→agent delivery (reads park), outbound cuts agent→controller
// delivery (writes are swallowed). Passing false for a currently-cut
// direction heals that direction, so PartitionDirs(false, false) == Heal.
func (in *Injector) PartitionDirs(inbound, outbound bool) {
	in.mu.Lock()
	if in.partInbound && !inbound {
		close(in.healCh)
		in.healCh = make(chan struct{})
	}
	in.partInbound = inbound
	in.partOutbound = outbound
	in.mu.Unlock()
}

// Heal ends a partition in both directions and wakes blocked readers.
// Idempotent.
func (in *Injector) Heal() {
	in.PartitionDirs(false, false)
}

// counts returns a snapshot of the fault counters.
func (in *Injector) counts() faultCounts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// writeFault decides one write's fate under the injector's current state.
func (in *Injector) writeFault() (delay time.Duration, drop bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.partOutbound || (in.drop > 0 && in.rng.Float64() < in.drop) {
		in.stats.DroppedWrites++
		return 0, true
	}
	if in.delay > 0 {
		in.stats.DelayedWrites++
	}
	return in.delay, false
}

// Conn is a net.Conn subject to an Injector's faults.
type Conn struct {
	net.Conn
	inj *Injector

	closeOnce sync.Once
	closedCh  chan struct{} // closed on Close; wakes partition-blocked reads
}

// closed returns the channel closed when the connection closes, creating it
// on first use under the injector lock.
func (c *Conn) closedChan() chan struct{} {
	c.inj.mu.Lock()
	if c.closedCh == nil {
		c.closedCh = make(chan struct{})
	}
	ch := c.closedCh
	c.inj.mu.Unlock()
	return ch
}

// Read delivers bytes from the peer. While the injector is partitioned the
// read parks until Heal or until the connection closes — in-flight kernel
// buffers are delivered after the heal, modelling delayed rather than
// corrupted delivery.
func (c *Conn) Read(b []byte) (int, error) {
	counted := false
	for {
		c.inj.mu.Lock()
		part := c.inj.partInbound
		heal := c.inj.healCh
		if part && !counted {
			c.inj.stats.BlockedReads++
			counted = true
		}
		c.inj.mu.Unlock()
		if !part {
			break
		}
		select {
		case <-heal:
		case <-c.closedChan():
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Read(b)
}

// Write transmits to the peer unless the injector swallows it; swallowed
// writes report success, exactly like packets lost in a real network.
func (c *Conn) Write(b []byte) (int, error) {
	delay, drop := c.inj.writeFault()
	if drop {
		return len(b), nil
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return c.Conn.Write(b)
}

// Close closes the underlying connection and wakes partition-blocked reads.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closedChan())
		err = c.Conn.Close()
	})
	return err
}

// WorkerFault injects data-plane faults: a deterministic schedule of worker
// stalls and crashes driven by task count, for exercising the pool's
// deadline-miss and abandonment paths under degraded compute. Hook matches
// dataplane.Config.FaultHook.
type WorkerFault struct {
	mu    sync.Mutex
	rng   *rand.Rand
	tasks uint64

	// StallEvery stalls one task in every StallEvery by StallFor (0 = off).
	StallEvery int
	// StallFor is the injected per-stall processing delay.
	StallFor time.Duration
	// CrashEvery fails one task in every CrashEvery with ErrWorkerCrash
	// (0 = off), modelling a worker dying mid-task.
	CrashEvery int
}

// ErrWorkerCrash marks tasks failed by injected worker crashes.
var ErrWorkerCrash = errors.New("faultinject: injected worker crash")

// NewWorkerFault returns a seeded data-plane fault source.
func NewWorkerFault(seed int64) *WorkerFault {
	return &WorkerFault{rng: rand.New(rand.NewSource(seed))}
}

// SetStall reconfigures the stall schedule while workers are live: one task
// in every `every` sleeps for d (every <= 0 turns stalls off).
func (w *WorkerFault) SetStall(every int, d time.Duration) {
	w.mu.Lock()
	w.StallEvery = every
	w.StallFor = d
	w.mu.Unlock()
}

// SetCrash reconfigures the crash schedule while workers are live: one task
// in every `every` fails with ErrWorkerCrash (every <= 0 turns crashes off).
func (w *WorkerFault) SetCrash(every int) {
	w.mu.Lock()
	w.CrashEvery = every
	w.mu.Unlock()
}

// Hook is called by a pool worker at task start; it may sleep (stall) and
// may return an error, which fails the task. Safe for concurrent workers.
func (w *WorkerFault) Hook(worker int) error {
	w.mu.Lock()
	w.tasks++
	n := w.tasks
	stall := w.StallEvery > 0 && n%uint64(w.StallEvery) == 0
	crash := w.CrashEvery > 0 && n%uint64(w.CrashEvery) == 0
	d := w.StallFor
	w.mu.Unlock()
	if stall && d > 0 {
		time.Sleep(d)
	}
	if crash {
		return fmt.Errorf("worker %d task %d: %w", worker, n, ErrWorkerCrash)
	}
	return nil
}
