package faultinject

import (
	"errors"
	"net"
	"testing"
	"time"
)

// pipePair returns a wrapped client conn talking to a raw server conn over
// loopback TCP (net.Pipe has no kernel buffer, which would make partition
// semantics — silence, not backpressure — untestable).
func pipePair(t *testing.T, in *Injector) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := in.Dial("tcp", ln.Addr().String())
	<-done
	if cerr != nil || err != nil {
		t.Fatalf("dial: %v accept: %v", cerr, err)
	}
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
	return client, server
}

func TestPassThroughByDefault(t *testing.T) {
	in := New(1)
	c, s := pipePair(t, in)
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	_ = s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := s.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("got %q", buf)
	}
	if st := in.counts(); st.DroppedWrites != 0 {
		t.Fatalf("dropped %d writes with faults off", st.DroppedWrites)
	}
}

func TestPartitionSwallowsWritesAndBlocksReads(t *testing.T) {
	in := New(2)
	c, s := pipePair(t, in)
	in.Partition()
	if _, err := c.Write([]byte("lost")); err != nil {
		t.Fatalf("partitioned write must report success: %v", err)
	}
	if st := in.counts(); st.DroppedWrites != 1 {
		t.Fatalf("dropped = %d", st.DroppedWrites)
	}
	// Reads park during the partition even when data is waiting.
	if _, err := s.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	readDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 2)
		_, err := c.Read(buf)
		readDone <- err
	}()
	select {
	case <-readDone:
		t.Fatal("read completed during partition")
	case <-time.After(50 * time.Millisecond):
	}
	// Healing releases the reader; buffered data is then delivered.
	in.Heal()
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatalf("post-heal read: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked after heal")
	}
	// Writes flow again.
	if _, err := c.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	_ = s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := s.Read(buf); err != nil || string(buf) != "back" {
		t.Fatalf("post-heal delivery: %q %v", buf, err)
	}
}

func TestDialRefusedDuringPartition(t *testing.T) {
	in := New(3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	in.Partition()
	if _, err := in.Dial("tcp", ln.Addr().String()); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dial during partition: %v", err)
	}
	if st := in.counts(); st.RefusedDials != 1 {
		t.Fatalf("refused = %d", st.RefusedDials)
	}
	in.Heal()
	c, err := in.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	_ = c.Close()
}

func TestCloseUnblocksPartitionedReads(t *testing.T) {
	in := New(4)
	c, _ := pipePair(t, in)
	in.Partition()
	readDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := c.Read(buf)
		readDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readDone:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read not released by Close")
	}
}

func TestDropRateIsDeterministic(t *testing.T) {
	drops := func(seed int64) uint64 {
		in := New(seed)
		c, _ := pipePair(t, in)
		in.SetDropRate(0.5)
		for i := 0; i < 64; i++ {
			if _, err := c.Write([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return in.counts().DroppedWrites
	}
	a, b := drops(7), drops(7)
	if a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	if a == 0 || a == 64 {
		t.Fatalf("drop rate 0.5 dropped %d/64", a)
	}
}

func TestDelayAddsLatency(t *testing.T) {
	in := New(5)
	c, s := pipePair(t, in)
	in.SetDelay(30 * time.Millisecond)
	start := time.Now()
	if _, err := c.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("write returned after %v, want ≥ 30ms delay", d)
	}
	buf := make([]byte, 4)
	_ = s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := s.Read(buf); err != nil {
		t.Fatal(err)
	}
	if st := in.counts(); st.DelayedWrites != 1 {
		t.Fatalf("delayed = %d", st.DelayedWrites)
	}
}

func TestOutboundOnlyPartition(t *testing.T) {
	in := New(11)
	c, s := pipePair(t, in)
	in.PartitionDirs(false, true)
	// Client→server writes are swallowed...
	if _, err := c.Write([]byte("lost")); err != nil {
		t.Fatalf("outbound-partitioned write must report success: %v", err)
	}
	if st := in.counts(); st.DroppedWrites != 1 {
		t.Fatalf("dropped = %d", st.DroppedWrites)
	}
	// ...but server→client delivery still flows: the half-open case where
	// the controller keeps talking to an agent it can no longer hear.
	if _, err := s.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err != nil || string(buf) != "hi" {
		t.Fatalf("inbound read under outbound-only cut: %q %v", buf, err)
	}
	if st := in.counts(); st.BlockedReads != 0 {
		t.Fatalf("blocked reads = %d under outbound-only cut", st.BlockedReads)
	}
	in.Heal()
	if _, err := c.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	buf4 := make([]byte, 4)
	_ = s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := s.Read(buf4); err != nil || string(buf4) != "back" {
		t.Fatalf("post-heal delivery: %q %v", buf4, err)
	}
}

func TestInboundOnlyPartition(t *testing.T) {
	in := New(12)
	c, s := pipePair(t, in)
	in.PartitionDirs(true, false)
	// Client→server writes still flow: the agent keeps reporting to a
	// controller whose responses it can no longer hear.
	if _, err := c.Write([]byte("up")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	_ = s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := s.Read(buf); err != nil || string(buf) != "up" {
		t.Fatalf("outbound write under inbound-only cut: %q %v", buf, err)
	}
	if st := in.counts(); st.DroppedWrites != 0 {
		t.Fatalf("dropped = %d under inbound-only cut", st.DroppedWrites)
	}
	// Server→client delivery parks until heal.
	if _, err := s.Write([]byte("dn")); err != nil {
		t.Fatal(err)
	}
	readDone := make(chan error, 1)
	go func() {
		b := make([]byte, 2)
		_, err := c.Read(b)
		readDone <- err
	}()
	select {
	case <-readDone:
		t.Fatal("read completed during inbound partition")
	case <-time.After(50 * time.Millisecond):
	}
	if st := in.counts(); st.BlockedReads != 1 {
		t.Fatalf("blocked reads = %d, want 1", st.BlockedReads)
	}
	in.PartitionDirs(false, false)
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatalf("post-heal read: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked after directional heal")
	}
}

func TestDialRefusedUnderEitherDirection(t *testing.T) {
	in := New(13)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for i, dirs := range [][2]bool{{true, false}, {false, true}} {
		in.PartitionDirs(dirs[0], dirs[1])
		if _, err := in.Dial("tcp", ln.Addr().String()); !errors.Is(err, ErrPartitioned) {
			t.Fatalf("case %d: dial under one-sided cut: %v", i, err)
		}
	}
	if st := in.counts(); st.RefusedDials != 2 {
		t.Fatalf("refused = %d", st.RefusedDials)
	}
	in.Heal()
	c, err := in.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	_ = c.Close()
}

func TestWorkerFaultSetters(t *testing.T) {
	wf := NewWorkerFault(14)
	wf.SetCrash(2)
	crashes := 0
	for i := 0; i < 4; i++ {
		if err := wf.Hook(0); err != nil {
			crashes++
		}
	}
	if crashes != 2 {
		t.Fatalf("crashes = %d, want 2", crashes)
	}
	wf.SetCrash(0)
	for i := 0; i < 8; i++ {
		if err := wf.Hook(0); err != nil {
			t.Fatalf("crash after SetCrash(0): %v", err)
		}
	}
	wf.SetStall(1, 5*time.Millisecond)
	start := time.Now()
	if err := wf.Hook(0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 4*time.Millisecond {
		t.Fatalf("stall took %v, want ≥ 5ms", d)
	}
	wf.SetStall(0, 0)
	start = time.Now()
	if err := wf.Hook(0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 3*time.Millisecond {
		t.Fatalf("stall still active after SetStall(0,0): %v", d)
	}
}

func TestWorkerFaultSchedule(t *testing.T) {
	wf := NewWorkerFault(9)
	wf.CrashEvery = 4
	crashes := 0
	for i := 0; i < 16; i++ {
		if err := wf.Hook(0); err != nil {
			if !errors.Is(err, ErrWorkerCrash) {
				t.Fatalf("unexpected error: %v", err)
			}
			crashes++
		}
	}
	if crashes != 4 {
		t.Fatalf("crashes = %d, want 4", crashes)
	}
	wf2 := NewWorkerFault(9)
	wf2.StallEvery = 2
	wf2.StallFor = 10 * time.Millisecond
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := wf2.Hook(1); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("stalls took %v, want ≥ 20ms", d)
	}
}
