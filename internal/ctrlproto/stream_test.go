package ctrlproto

import (
	"errors"
	"net"
	"testing"
	"time"
)

// streamPair wires a stream over one side of an in-memory pipe and returns
// the peer Conn for reading. The pipe is unbuffered, so until the test
// reads, the stream's writer is stalled mid-write — the deterministic
// "slow agent" backdrop these tests run against.
func streamPair(t *testing.T, limit int) (*Stream, *Conn) {
	t.Helper()
	cs, ss := net.Pipe()
	st := newStream(NewConn(ss), limit)
	go st.writeLoop()
	rd := NewConn(cs)
	rd.ReadTimeout = 5 * time.Second
	t.Cleanup(func() {
		st.close()
		_ = ss.Close()
		_ = cs.Close()
	})
	return st, rd
}

// stallWriter parks the stream's writer goroutine inside a socket write by
// enqueueing one message the test has not read yet.
func stallWriter(t *testing.T, st *Stream) {
	t.Helper()
	if err := st.Enqueue(StreamKey{Kind: KeyStats}, &StatsRequest{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for st.Stats().Depth != 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the stall message")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamCoalescesUnderStalledReader is the backpressure contract: with
// the agent not reading, repeated pushes for the same cell fold into one
// queued message carrying the newest payload, a removal supersedes a queued
// assignment for its cell, and the enqueue path never blocks.
func TestStreamCoalescesUnderStalledReader(t *testing.T) {
	st, rd := streamPair(t, 64)
	stallWriter(t, st)

	// 100 assignment updates for cell 7 while the reader is stalled: one
	// live entry, newest PRB wins.
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := st.Enqueue(StreamKey{Kind: KeyPlacement, Cell: 7},
			&AssignCell{Seq: uint32(i + 2), Cell: 7, PRB: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("enqueues blocked for %v against a stalled reader", elapsed)
	}
	// An assignment then a removal for cell 9: the removal supersedes.
	if err := st.Enqueue(StreamKey{Kind: KeyPlacement, Cell: 9}, &AssignCell{Seq: 200, Cell: 9}); err != nil {
		t.Fatal(err)
	}
	if err := st.Enqueue(StreamKey{Kind: KeyPlacement, Cell: 9}, &RemoveCell{Seq: 201, Cell: 9}); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Depth != 2 {
		t.Fatalf("queue depth %d, want 2 (one per coalescing key)", stats.Depth)
	}
	if stats.Coalesced != 100 {
		t.Fatalf("coalesced %d, want 100", stats.Coalesced)
	}
	if stats.Dropped != 0 {
		t.Fatalf("dropped %d without overflow", stats.Dropped)
	}

	// Drain the pipe: the stall message, then exactly one message per key
	// in enqueue order, carrying the newest state.
	if m, err := rd.ReadMessage(); err != nil || m.Type() != TStatsRequest {
		t.Fatalf("first message %v err %v, want the stall message", m, err)
	}
	m, err := rd.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	ac, ok := m.(*AssignCell)
	if !ok || ac.Cell != 7 || ac.PRB != 99 {
		t.Fatalf("second message %#v, want AssignCell cell 7 with newest PRB 99", m)
	}
	m, err = rd.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if rc, ok := m.(*RemoveCell); !ok || rc.Cell != 9 {
		t.Fatalf("third message %#v, want RemoveCell for cell 9", m)
	}
}

// TestStreamEvictsStaleOnOverflow: a full queue admits new traffic by
// dropping the oldest queued message, reporting each eviction through the
// drop hook.
func TestStreamEvictsStaleOnOverflow(t *testing.T) {
	st, rd := streamPair(t, 4)
	var drops []StreamKey
	st.onDrop = func(key StreamKey, m Message) { drops = append(drops, key) }
	stallWriter(t, st)

	for c := uint16(1); c <= 10; c++ {
		if err := st.Enqueue(StreamKey{Kind: KeyPlacement, Cell: c}, &AssignCell{Seq: uint32(c), Cell: c}); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Depth != 4 {
		t.Fatalf("queue depth %d, want the limit 4", stats.Depth)
	}
	if stats.Dropped != 6 || len(drops) != 6 {
		t.Fatalf("dropped %d (hook saw %d), want 6", stats.Dropped, len(drops))
	}
	for i, key := range drops {
		if key != (StreamKey{Kind: KeyPlacement, Cell: uint16(i + 1)}) {
			t.Fatalf("drop %d evicted %+v, want oldest-first cell %d", i, key, i+1)
		}
	}

	// The survivors are the four newest cells, in order.
	if m, err := rd.ReadMessage(); err != nil || m.Type() != TStatsRequest {
		t.Fatalf("first message %v err %v, want the stall message", m, err)
	}
	for want := uint16(7); want <= 10; want++ {
		m, err := rd.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if ac, ok := m.(*AssignCell); !ok || ac.Cell != want {
			t.Fatalf("got %#v, want AssignCell for cell %d", m, want)
		}
	}
}

// TestStreamClosedRejectsEnqueue: once closed, a stream refuses new
// messages instead of queueing them for a writer that is gone.
func TestStreamClosedRejectsEnqueue(t *testing.T) {
	st, _ := streamPair(t, 2)
	st.close()
	if err := st.Enqueue(StreamKey{Kind: KeyPlacement, Cell: 1}, &AssignCell{Seq: 1, Cell: 1}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("enqueue after close: err %v, want ErrStreamClosed", err)
	}
}
