package phy

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// ParallelDecoder fans the turbo decoding of one or more transport blocks'
// code blocks across a bounded set of workers. LTE code blocks are
// independent after de-rate-matching — no state crosses block boundaries
// until desegmentation — so the single hottest loop of uplink processing is
// embarrassingly parallel; this type is the repo's intra-subframe
// parallelization of it.
//
// A ParallelDecoder has no block size: a call's K is read off its blocks
// and the workers' scratch is sized for the largest, so one decoder (≈ 1.7
// MB per worker on the default path) serves every shape its owner meets.
//
// Ownership/concurrency contract: a ParallelDecoder is owned by exactly one
// goroutine at a time, the one calling Decode — like TurboDecoder, it is NOT
// safe for concurrent Decode calls. Internally it keeps workers-1 resident
// helper goroutines parked on a wake channel between calls; every worker
// owns a private TurboDecoder and, when batching is enabled, a private
// BatchDecoderI16, each with its preallocated metric buffers, built at
// construction (DecoderSet is what defers it to a first decode). The calling
// goroutine participates as worker 0, so workers=1 spawns no goroutines and
// adds no synchronization to the serial path. During a call, block indices
// are claimed through an atomic counter (lock-free, no per-subframe
// allocation) — one index at a time without batching, a contiguous span of
// width indices with it; worker i writes only the blocks it claimed and
// reads only those blocks' LLR streams, so result placement is
// deterministic regardless of scheduling order: block j's bits always land
// in blocks[j]. The wake-channel send happens-before helper execution and
// the WaitGroup join happens-before the decode call returns, which is the
// entire memory-ordering story — no other locks exist on this path.
//
// Blocks are partitioned into abort groups (one group per transport block
// when several are decoded jointly; a single group otherwise). A CRC
// failure on any block (the per-block predicate returning false after the
// iteration budget) marks its group aborted; workers skip the remaining
// blocks of aborted groups — a transport block with a failed code block can
// never pass the TB CRC — while other groups keep decoding. Lockstep
// batches may mix groups: a lane whose group aborts mid-batch is cancelled
// through the batch decoder's drop hook without perturbing its neighbours.
//
// Close releases the resident goroutines. Closing is required before
// dropping the last reference when workers > 1, otherwise the helpers leak
// parked forever.
type ParallelDecoder struct {
	workers int
	batch   int        // lockstep width (1 = per-block scalar decode)
	ws      []pdWorker // ws[0] is used by the calling goroutine

	wake   chan struct{} // one token wakes one parked helper
	closed bool

	// Per-call fan-out state: written by the owner before waking helpers
	// (the channel send publishes it), read-only during the call except for
	// the atomics and the distinct blocks each claim writes.
	blocks        [][]byte
	ld0, ld1, ld2 [][]float32
	known         []int   // nil = no block has known leading bits
	groups        []int32 // nil = all blocks in group 0
	check         func([]byte) bool
	prepare       func(int)
	ng            int // group count for this call
	next          atomic.Int64
	iters         atomic.Int64
	gAbort        []atomic.Bool  // per-group abort flags, grown lazily
	gIters        []atomic.Int64 // per-group iteration totals
	wg            sync.WaitGroup

	failed1 [1]bool // Decode's one group slot
}

// pdWorker is one worker's private state: its scalar decoder, its optional
// lockstep batch decoder, and the gather scratch a batched claim marshals
// lanes through. Only the owning worker touches it during a call.
type pdWorker struct {
	pd  *ParallelDecoder
	dec *TurboDecoder
	bd  *BatchDecoderI16 // nil unless batch ≥ 2

	idx        []int // claim scratch: lane → block index
	blk        [][]byte
	l0, l1, l2 [][]float32
	kn         []int          // lane → known leading bits
	drop       func(int) bool // bound dropLane, allocated once
}

// NewParallelDecoder builds the decoder pool of a profile (the zero value is
// the default path): Workers, Kernel and the lockstep Width are read, the
// front-end fields are the processor's business. Workers-1 resident helper
// goroutines are started; call Close to release them. Every per-worker
// decoder runs the same kernel and owns its private working buffers, so
// kernel state is worker-resident and never shared.
func NewParallelDecoder(p DecodeProfile) (*ParallelDecoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	workers, batch := max(p.Workers, 1), p.Width() // 0 workers means the caller alone
	pd := &ParallelDecoder{
		workers: workers,
		batch:   batch,
		wake:    make(chan struct{}),
		gAbort:  make([]atomic.Bool, 1),
		gIters:  make([]atomic.Int64, 1),
	}
	pd.ws = make([]pdWorker, workers)
	for i := range pd.ws {
		w := &pd.ws[i]
		w.pd = pd
		w.dec = newTurboDecoder(p.Kernel)
		if batch > 1 {
			bd, err := NewBatchDecoderI16(batch)
			if err != nil {
				return nil, err
			}
			w.bd = bd
			w.kn = make([]int, batch)
			w.blk = make([][]byte, batch)
			w.l0 = make([][]float32, batch)
			w.l1 = make([][]float32, batch)
			w.l2 = make([][]float32, batch)
			w.drop = w.dropLane // bound once: installing per call allocates nothing
		}
		w.idx = make([]int, batch)
	}
	for i := 1; i < workers; i++ {
		go pd.helper(&pd.ws[i])
	}
	return pd, nil
}

// Workers returns the configured parallelism (including the caller).
func (pd *ParallelDecoder) Workers() int { return pd.workers }

// SetMaxIterations bounds every per-worker decoder's full turbo iterations
// (scalar and lockstep alike); n ≤ 0 restores the default budget. Like
// Decode, only the owning goroutine may call this, and only between decode
// calls — the helpers read the bound when a call wakes them.
func (pd *ParallelDecoder) SetMaxIterations(n int) {
	if n <= 0 {
		n = DefaultTurboIterations
	}
	for i := range pd.ws {
		pd.ws[i].dec.MaxIterations = n
		if pd.ws[i].bd != nil {
			pd.ws[i].bd.MaxIterations = n
		}
	}
}

// MaxIterations returns the per-decoder iteration bound.
func (pd *ParallelDecoder) MaxIterations() int { return pd.ws[0].dec.MaxIterations }

// Decode turbo-decodes every code block: blocks[i] (all of one length K, a
// legal turbo block size) receives the hard decisions for the LLR streams
// ld0[i], ld1[i], ld2[i] (each length K+4, the encoder's layout). check,
// when non-nil, is the per-block success predicate (a CRC); it is installed
// as each worker's EarlyCheck, and a block that still fails it after the
// iteration budget aborts the remaining blocks. Decode returns the total iterations consumed and ok=false if any
// decoded block failed check. Successful output is bit-identical to
// decoding the blocks serially with one TurboDecoder, because each block's
// decode depends only on its own streams.
//
// known, when non-nil, gives for each block the number of leading
// systematic values that are LTE filler — known zeros the caller (or
// prepare) pins to fillerLLR — which the int16 kernel keeps out of the
// block's ingest gain (see llrGain).
//
// prepare, when non-nil, is a per-block preparation hook: the worker that
// claims block i calls prepare(i) immediately before turbo-decoding it.
// This is how the fused decode front-end overlaps with turbo decoding —
// block i+1's demod/descramble/dematch runs on one worker while block i
// decodes on another, instead of all front-end work serializing on the
// caller. prepare must follow the block-ownership rule: it may read state
// the owner published before the call (the wake-channel send is the
// happens-before edge) but may write only block i's private data — in the
// fused front-end, the block's soft streams ld0[i]/ld1[i]/ld2[i]. It must
// not fail; any validation belongs on the owner before the call. prepare
// runs for every block even when a CRC failure aborts the decode fan-out,
// because its side effects are HARQ soft state that must match the staged
// pipeline's (see claimBlocks).
func (pd *ParallelDecoder) Decode(blocks [][]byte, ld0, ld1, ld2 [][]float32, known []int, check func([]byte) bool, prepare func(int)) (int, bool, error) {
	iters, err := pd.DecodeGroups(blocks, ld0, ld1, ld2, known, nil, pd.failed1[:], check, prepare)
	return iters, err == nil && !pd.failed1[0], err
}

// DecodeGroups is the joint entry point: it decodes blocks belonging to
// several independent transport blocks in one fan-out. groups[i] names the
// abort group (transport block) of blocks[i]; nil means one group. failed
// must have one element per group (its length is the group count); on
// return failed[g] reports whether any block of group g missed its check. A
// failure aborts only the remaining blocks of that group — other groups
// keep decoding — which is what makes cross-transport-block batching safe:
// one UE's bad channel cannot starve another's decode. known, check and
// prepare are as in Decode; prepare still runs for every block of aborted
// groups (HARQ soft state). The returned total iteration count sums all
// groups; per-group totals are available from GroupIters until the next
// decode call. Like Decode, only the owning goroutine may call this.
func (pd *ParallelDecoder) DecodeGroups(blocks [][]byte, ld0, ld1, ld2 [][]float32, known []int, groups []int32, failed []bool, check func([]byte) bool, prepare func(int)) (int, error) {
	if pd.closed {
		return 0, fmt.Errorf("phy: parallel decoder is closed: %w", ErrBadParameter)
	}
	c := len(blocks)
	if len(ld0) != c || len(ld1) != c || len(ld2) != c {
		return 0, fmt.Errorf("phy: %d blocks but %d/%d/%d LLR streams: %w",
			c, len(ld0), len(ld1), len(ld2), ErrBadParameter)
	}
	if known != nil && len(known) != c {
		return 0, fmt.Errorf("phy: %d blocks but %d known-bit counts: %w", c, len(known), ErrBadParameter)
	}
	ng := len(failed)
	if ng < 1 {
		return 0, fmt.Errorf("phy: DecodeGroups needs at least one group slot: %w", ErrBadParameter)
	}
	if groups != nil {
		if len(groups) != c {
			return 0, fmt.Errorf("phy: %d blocks but %d group tags: %w", c, len(groups), ErrBadParameter)
		}
		for i, g := range groups {
			if g < 0 || int(g) >= ng {
				return 0, fmt.Errorf("phy: block %d group %d outside [0,%d): %w", i, g, ng, ErrBadParameter)
			}
		}
	}
	clear(failed)
	if c == 0 {
		return 0, nil
	}
	for cap(pd.gAbort) < ng {
		pd.gAbort = append(pd.gAbort[:cap(pd.gAbort)], atomic.Bool{})
		pd.gIters = append(pd.gIters[:cap(pd.gIters)], atomic.Int64{})
	}
	pd.gAbort = pd.gAbort[:cap(pd.gAbort)]
	pd.gIters = pd.gIters[:cap(pd.gIters)]
	for g := 0; g < ng; g++ {
		pd.gAbort[g].Store(false)
		pd.gIters[g].Store(0)
	}
	pd.blocks, pd.ld0, pd.ld1, pd.ld2, pd.known = blocks, ld0, ld1, ld2, known
	pd.groups, pd.check, pd.prepare, pd.ng = groups, check, prepare, ng
	pd.next.Store(0)
	pd.iters.Store(0)
	spans := (c + pd.batch - 1) / pd.batch
	helpers := min(pd.workers, spans) - 1
	pd.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		pd.wake <- struct{}{}
	}
	// The caller is worker 0.
	err := pd.claimBlocks(&pd.ws[0])
	pd.wg.Wait()
	for g := 0; g < ng; g++ {
		failed[g] = pd.gAbort[g].Load()
	}
	pd.blocks, pd.ld0, pd.ld1, pd.ld2, pd.known = nil, nil, nil, nil, nil
	pd.groups, pd.check, pd.prepare = nil, nil, nil
	return int(pd.iters.Load()), err
}

// GroupIters returns the iterations group g consumed in the most recent
// DecodeGroups call (valid until the next decode call on this pool).
func (pd *ParallelDecoder) GroupIters(g int) int { return int(pd.gIters[g].Load()) }

// group maps a block index to its abort group.
func (pd *ParallelDecoder) group(i int) int {
	if pd.groups == nil {
		return 0
	}
	return int(pd.groups[i])
}

// knownBits returns block i's count of known leading systematic bits.
func (pd *ParallelDecoder) knownBits(i int) int {
	if pd.known == nil {
		return 0
	}
	return pd.known[i]
}

// abortAll marks every group aborted (decode-error path).
func (pd *ParallelDecoder) abortAll() {
	for g := 0; g < pd.ng; g++ {
		pd.gAbort[g].Store(true)
	}
}

// dropLane is the batch decoder's cancellation hook: lane b of the worker's
// in-flight batch is cancelled when its group has aborted.
func (w *pdWorker) dropLane(b int) bool {
	pd := w.pd
	return pd.gAbort[pd.group(w.idx[b])].Load()
}

// helper is the resident loop of one worker goroutine: park on the wake
// channel, run the shared block counter dry, signal completion, park again.
// A closed wake channel terminates the loop.
func (pd *ParallelDecoder) helper(w *pdWorker) {
	for range pd.wake {
		// A decode error (a block or stream of the wrong length) aborts
		// every group, which the owner reports as failed.
		_ = pd.claimBlocks(w)
		pd.wg.Done()
	}
}

// claimBlocks claims spans of block indices until none remain. With a
// prepare hook installed, the hook still runs for every block of an aborted
// group (only the turbo decodes are skipped): in the fused front-end the
// hook's side effect is soft-buffer accumulation, which is HARQ state the
// next retransmission combines against — dropping it would make an aborted
// fused decode leave different soft state than the staged pipeline, whose
// front-end sweeps always complete before turbo starts.
//
// A claimed span's non-aborted blocks go through the lockstep batch decoder
// when ≥ 2 remain; a single block uses the scalar decoder (measured faster
// than a one-lane batch pass). Both produce bit-identical output.
func (pd *ParallelDecoder) claimBlocks(w *pdWorker) error {
	w.dec.EarlyCheck = pd.check
	batch := pd.batch
	for {
		if pd.prepare == nil && pd.ng == 1 && pd.gAbort[0].Load() {
			return nil
		}
		base := int(pd.next.Add(int64(batch)) - int64(batch))
		if base >= len(pd.blocks) {
			return nil
		}
		end := min(base+batch, len(pd.blocks))
		if pd.prepare != nil {
			for i := base; i < end; i++ {
				pd.prepare(i)
			}
		}
		// Gather the span's still-live blocks.
		n := 0
		for i := base; i < end; i++ {
			if pd.gAbort[pd.group(i)].Load() {
				continue
			}
			w.idx[n] = i
			n++
		}
		if n >= 2 && w.bd != nil {
			if err := w.decodeBatch(n); err != nil {
				pd.abortAll()
				return err
			}
			continue
		}
		for j := 0; j < n; j++ {
			i := w.idx[j]
			iters, err := w.dec.decode(pd.blocks[i], pd.ld0[i], pd.ld1[i], pd.ld2[i], pd.knownBits(i))
			if err != nil {
				pd.abortAll()
				return err
			}
			pd.iters.Add(int64(iters))
			pd.gIters[pd.group(i)].Add(int64(iters))
			if pd.check != nil && !pd.check(pd.blocks[i]) {
				pd.gAbort[pd.group(i)].Store(true)
			}
		}
	}
}

// decodeBatch runs the worker's gathered n-block span through its lockstep
// decoder: lanes that fail their check after the budget mark their group
// aborted, and lanes of groups aborted mid-flight are cancelled through the
// drop hook.
func (w *pdWorker) decodeBatch(n int) error {
	pd := w.pd
	for j := 0; j < n; j++ {
		i := w.idx[j]
		w.blk[j], w.l0[j], w.l1[j], w.l2[j] = pd.blocks[i], pd.ld0[i], pd.ld1[i], pd.ld2[i]
		w.kn[j] = pd.knownBits(i)
	}
	iters, failedMask, err := w.bd.Decode(w.blk[:n], w.l0[:n], w.l1[:n], w.l2[:n], w.kn[:n], pd.check, w.drop)
	for j := 0; j < n; j++ {
		w.blk[j], w.l0[j], w.l1[j], w.l2[j] = nil, nil, nil, nil
	}
	if err != nil {
		return err
	}
	pd.iters.Add(int64(iters))
	for j := 0; j < n; j++ {
		pd.gIters[pd.group(w.idx[j])].Add(int64(w.bd.LaneIters(j)))
	}
	for failedMask != 0 {
		lane := bits.TrailingZeros64(failedMask)
		failedMask &= failedMask - 1
		pd.gAbort[pd.group(w.idx[lane])].Store(true)
	}
	return nil
}

// Close terminates the resident helper goroutines. It must not be called
// concurrently with Decode; calling it twice is safe. Decode after Close
// returns an error.
func (pd *ParallelDecoder) Close() error {
	if !pd.closed {
		pd.closed = true
		close(pd.wake)
	}
	return nil
}
