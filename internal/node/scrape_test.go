package node

import (
	"net"
	"testing"
	"time"

	"pran/internal/controller"
	"pran/internal/ctrlproto"
	"pran/internal/dataplane"
	"pran/internal/faultinject"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// TestScrapeConcurrentWithDelayedAgent is the fan-in regression test: one
// agent whose link suddenly adds multi-second write latency must cost the
// scrape only its own slot, not the whole budget. The healthy agents all
// report within the deadline, the slow one is simply not counted, and the
// call returns in roughly one timeout — the sequential fan-in this replaces
// burned the entire budget waiting on the slow agent and then raced the
// expired deadline for every healthy report behind it.
func TestScrapeConcurrentWithDelayedAgent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cn, err := NewControllerNode(ln, ControllerConfig{
		Controller: controller.DefaultConfig(),
		Cells:      []frame.CellConfig{{ID: 0, PCI: 0, Bandwidth: phy.BW1_4MHz, Antennas: 1}},
		Period:     50 * time.Millisecond,
		// Generous lease budget: the delayed agent's heartbeats crawl
		// through the same slowed link and must not be evicted mid-test.
		HeartbeatInterval: 100 * time.Millisecond,
		LeaseMisses:       100,
		Logf:              t.Logf,
		Telemetry:         telemetry.New(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	runUntilCleanup(t, "controller Serve", cn.Serve, cn.Close)

	inj := faultinject.New(7)
	newAgent := func(id uint32, dial func(string, string) (net.Conn, error)) {
		an, err := NewAgentNode(AgentConfig{
			ControllerAddr: cn.Addr().String(),
			ServerID:       id,
			Cores:          1,
			Dial:           dial,
			Pool:           dataplane.Config{DeadlineScale: 1000, Policy: dataplane.EDF, Telemetry: telemetry.New(2)},
			TTIInterval:    10 * time.Millisecond,
			Seed:           int64(id),
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		runUntilCleanup(t, "agent Run", an.Run, an.Close)
	}
	const healthy = 3
	for id := uint32(1); id <= healthy; id++ {
		newAgent(id, nil)
	}
	newAgent(healthy+1, inj.Dial) // the soon-to-be-slow agent

	waitFor(t, "all agents registered", 5*time.Second, func() bool {
		return cn.NumAgents() == healthy+1
	})

	// Degrade the slow agent's link only after registration so setup is
	// deterministic: from here every write it makes (heartbeats and the
	// stats report alike) stalls for 2s, far past the scrape budget.
	inj.SetDelay(2 * time.Second)

	const budget = 500 * time.Millisecond
	start := time.Now()
	merged, reported, err := cn.ScrapeTelemetry(budget)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if reported != healthy {
		t.Fatalf("scrape counted %d agents, want the %d healthy ones (slow agent excluded)", reported, healthy)
	}
	if elapsed > budget+2*time.Second {
		t.Fatalf("scrape took %v; a slow agent must cost one timeout, not serialize the fan-in", elapsed)
	}
	// The healthy agents' pool metrics made it into the merge.
	if _, ok := merged.Gauge("cluster.servers_active"); !ok {
		t.Fatal("controller-local metrics missing from merge")
	}
	if got := merged.Counter(dataplane.MetricTasksSubmitted); got == 0 {
		// Not fatal demand: with one cell the pool may be idle on some
		// schedules, but the gauge families from agent TTI loops should
		// exist. Check any agent-side metric arrived at all.
		if len(merged.Gauges) == 0 && len(merged.Counters) == 0 {
			t.Fatal("merged snapshot carries no agent metrics")
		}
	}

	// The slow agent recovers once the fault heals: the next scrape counts
	// everyone again, proving the miss was backpressure, not eviction.
	inj.SetDelay(0)
	waitFor(t, "slow agent reports after heal", 10*time.Second, func() bool {
		_, n, err := cn.ScrapeTelemetry(budget)
		return err == nil && n == healthy+1
	})
}

// TestScrapeDropsLateReport pins scrape correlation to the request's
// sequence number. A raw agent holds its first report past that scrape's
// timeout; on the second request it sends the stale report (snapshot A)
// and then the fresh one (snapshot B). The second scrape must merge B: a
// report is matched to the request it answers, not merely to its agent.
func TestScrapeDropsLateReport(t *testing.T) {
	cn := startControllerNodeCfg(t, 1, 20*time.Millisecond, 50)
	r := dialRawAgent(t, cn.Addr().String(), 1, 20*time.Millisecond, rawOpts{})
	waitFor(t, "agent registered", 5*time.Second, func() bool { return cn.NumAgents() == 1 })

	requests := func() []uint32 {
		var seqs []uint32
		for _, m := range r.received() {
			if req, ok := m.(*ctrlproto.StatsRequest); ok {
				seqs = append(seqs, req.Seq)
			}
		}
		return seqs
	}
	snapshot := func(v uint64) []byte {
		reg := telemetry.New(1)
		reg.Counter("raw.snapshot").Add(0, v)
		data, err := reg.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	if _, reported, err := cn.ScrapeTelemetry(100 * time.Millisecond); err != nil || reported != 0 {
		t.Fatalf("held scrape: reported %d, err %v; want 0 agents, no error", reported, err)
	}
	waitFor(t, "first request delivered", 5*time.Second, func() bool { return len(requests()) == 1 })

	type result struct {
		snap     telemetry.Snapshot
		reported int
		err      error
	}
	done := make(chan result, 1)
	go func() {
		snap, reported, err := cn.ScrapeTelemetry(5 * time.Second)
		done <- result{snap, reported, err}
	}()
	waitFor(t, "second request delivered", 5*time.Second, func() bool { return len(requests()) == 2 })
	seqs := requests()
	if seqs[0] == seqs[1] {
		t.Fatalf("both scrapes sent request seq %d", seqs[0])
	}
	if err := r.c.SendStatsReport(seqs[0], snapshot(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.c.SendStatsReport(seqs[1], snapshot(2)); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil || res.reported != 1 {
		t.Fatalf("second scrape: reported %d, err %v; want 1 agent, no error", res.reported, res.err)
	}
	if got := res.snap.Counter("raw.snapshot"); got != 2 {
		t.Fatalf("second scrape merged snapshot %d, want the fresh report's 2 (1 is the late reply to the first scrape)", got)
	}
}
