package dataplane

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"pran/internal/phy"
)

// TestEDFQueueMatchesReferenceSort property-checks the heap against a
// reference: popping everything after a random interleaving of pushes must
// yield deadlines in nondecreasing order, with FIFO order among equal
// deadlines.
func TestEDFQueueMatchesReferenceSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := time.Unix(0, 0)
		n := 1 + rng.Intn(100)
		q := taskQueue{}
		type entry struct {
			deadline time.Time
			seq      int
		}
		var ref []entry
		tasks := make(map[*Task]entry, n)
		for i := 0; i < n; i++ {
			// Coarse deadlines force plenty of ties.
			d := base.Add(time.Duration(rng.Intn(8)) * time.Millisecond)
			tk := &Task{Deadline: d, Enqueued: base.Add(time.Duration(i))}
			q.push(tk)
			e := entry{d, i}
			ref = append(ref, e)
			tasks[tk] = e
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].deadline.Before(ref[j].deadline) })
		for i := 0; i < n; i++ {
			got := tasks[q.pop()]
			if !got.deadline.Equal(ref[i].deadline) || got.seq != ref[i].seq {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOQueueMatchesArrivalOrder property-checks the FIFO variant against
// pure arrival order regardless of deadlines.
func TestFIFOQueueMatchesArrivalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := time.Unix(0, 0)
		n := 1 + rng.Intn(100)
		q := taskQueue{fifo: true}
		var order []*Task
		for i := 0; i < n; i++ {
			tk := &Task{
				Deadline: base.Add(time.Duration(rng.Intn(1000)) * time.Microsecond),
				Enqueued: base.Add(time.Duration(i) * time.Microsecond),
			}
			q.push(tk)
			order = append(order, tk)
		}
		for i := 0; i < n; i++ {
			if q.pop() != order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueInterleavedPushPop stresses the heap with mixed operations.
func TestQueueInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := time.Unix(0, 0)
	q := taskQueue{}
	live := 0
	var lastPopped time.Time
	for op := 0; op < 5000; op++ {
		if live == 0 || rng.Intn(3) > 0 {
			q.push(&Task{Deadline: base.Add(time.Duration(rng.Intn(1_000_000)) * time.Microsecond)})
			live++
		} else {
			tk := q.pop()
			live--
			// Within one drain phase deadlines pop in order; pushes can
			// introduce earlier deadlines, so only check when the queue
			// was drained in between.
			_ = tk
			lastPopped = tk.Deadline
		}
	}
	// Drain: strictly ordered from here on.
	prev := time.Time{}
	for q.Len() > 0 {
		tk := q.pop()
		if !prev.IsZero() && tk.Deadline.Before(prev) {
			t.Fatal("drain out of order")
		}
		prev = tk.Deadline
	}
	_ = lastPopped
}

// TestQueueClaimQuick property-checks taskQueue.claim against a reference
// built from a sorted copy of the queue: claim after claim, the claim's
// head is the queue's head (EDF, or FIFO), its partners are, in queue
// order, the head's span-key tasks whose code blocks still fit the span's
// lanes, and after the last claim every task was claimed exactly once.
func TestQueueClaimQuick(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			base := time.Unix(0, 0)
			n := 1 + rng.Intn(60)
			q := taskQueue{fifo: fifo}
			var ref []*Task // queue order
			seq := map[*Task]int{}
			keys := []spanKey{{}, {k: 2112}, {k: 2112, iterCap: 4}, {k: 6144}}
			push := func() {
				tk := &Task{
					Deadline: base.Add(time.Duration(rng.Intn(8)) * time.Millisecond),
					Enqueued: base.Add(time.Duration(len(seq)) * time.Microsecond),
					span:     keys[rng.Intn(len(keys))],
					blocks:   1 + rng.Intn(9),
				}
				if tk.span.k == 0 {
					tk.blocks = 1
				}
				seq[tk] = len(seq)
				q.push(tk)
				ref = append(ref, tk)
			}
			for i := 0; i < n; i++ {
				push()
			}
			seen := map[*Task]bool{}
			var dst []*Task
			for q.Len() > 0 {
				sort.SliceStable(ref, func(i, j int) bool {
					a, b := ref[i], ref[j]
					ta, tb := a.Deadline, b.Deadline
					if fifo {
						ta, tb = a.Enqueued, b.Enqueued
					}
					if !ta.Equal(tb) {
						return ta.Before(tb)
					}
					return seq[a] < seq[b]
				})
				head := ref[0]
				want := []*Task{head}
				if lanes := phy.MaxJointBlocks - head.blocks; head.span.k != 0 {
					for _, tk := range ref[1:] {
						if tk.span == head.span && tk.blocks <= lanes {
							lanes -= tk.blocks
							want = append(want, tk)
						}
					}
				}
				dst = q.claim(dst[:0])
				if len(dst) != len(want) {
					t.Logf("fifo=%v: claim of %d tasks, reference %d", fifo, len(dst), len(want))
					return false
				}
				for i := range dst {
					if dst[i] != want[i] || seen[dst[i]] {
						t.Logf("fifo=%v: claim member %d differs from the reference or was claimed before", fifo, i)
						return false
					}
					seen[dst[i]] = true
				}
				rest := ref[:0]
				for _, tk := range ref {
					if !seen[tk] {
						rest = append(rest, tk)
					}
				}
				ref = rest
				if q.Len() != len(ref) {
					return false
				}
				// Arrivals between claims.
				if rng.Intn(3) == 0 {
					push()
				}
			}
			return len(seen) == len(seq)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("fifo=%v: %v", fifo, err)
		}
	}
}
