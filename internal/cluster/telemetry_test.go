package cluster

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"pran/internal/telemetry"
)

func TestClusterTelemetryGauges(t *testing.T) {
	reg := telemetry.New(1)
	c, err := Uniform(4, 2, 8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTelemetry(reg)

	snap := reg.Snapshot()
	if v, _ := snap.Gauge("cluster.servers_active"); v != 2 {
		t.Fatalf("active gauge %d", v)
	}
	if v, _ := snap.Gauge("cluster.servers_standby"); v != 2 {
		t.Fatalf("standby gauge %d", v)
	}
	if v, _ := snap.Gauge("cluster.active_capacity_millicores"); v != 16000 {
		t.Fatalf("capacity gauge %d", v)
	}

	if err := c.SetState(0, Draining); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(3); err != nil {
		t.Fatal(err)
	}
	if err := c.SetState(3, Standby); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if v, _ := snap.Gauge("cluster.servers_active"); v != 1 {
		t.Fatalf("active gauge after drain %d", v)
	}
	if v, _ := snap.Gauge("cluster.servers_draining"); v != 1 {
		t.Fatalf("draining gauge %d", v)
	}
	if v, _ := snap.Gauge("cluster.servers_failed"); v != 0 {
		t.Fatalf("failed gauge after repair %d", v)
	}
	if got := snap.Counter("cluster.state_transitions"); got != 3 {
		t.Fatalf("transitions %d", got)
	}
	if v, _ := snap.Gauge("cluster.active_capacity_millicores"); v != 8000 {
		t.Fatalf("capacity gauge after drain %d", v)
	}

	// A no-op transition is not a transition.
	if err := c.SetState(1, Active); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("cluster.state_transitions"); got != 3 {
		t.Fatalf("no-op transition counted: %d", got)
	}
}

// TestClusterGaugesAfterConcurrentTransitions drives SetState (repairs
// included) and Fail from several goroutines at once. The gauges are set
// under the membership lock, so once every mutation has returned they must
// equal the aggregates a scan of the pool computes: a slower publisher must
// not overwrite a newer mutation's values.
func TestClusterGaugesAfterConcurrentTransitions(t *testing.T) {
	reg := telemetry.New(1)
	c, err := Uniform(16, 8, 4, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTelemetry(reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				id := ServerID(rng.Intn(16))
				switch rng.Intn(4) {
				case 0:
					_ = c.Fail(id)
				case 1:
					_ = c.SetState(id, Standby)
				default:
					_ = c.SetState(id, ServerState(rng.Intn(3))) // Standby, Active or Draining
				}
			}
		}(g)
	}
	wg.Wait()

	snap := reg.Snapshot()
	counts := c.Counts()
	for st := Standby; st <= Failed; st++ {
		if v, _ := snap.Gauge("cluster.servers_" + st.String()); v != int64(counts[st]) {
			t.Fatalf("%v gauge %d, pool holds %d", st, v, counts[st])
		}
	}
	want := int64(math.Round(activeCapacity(c) * 1000))
	if v, _ := snap.Gauge("cluster.active_capacity_millicores"); v != want {
		t.Fatalf("capacity gauge %d, pool holds %d millicores", v, want)
	}
}
