package node

import (
	"net"
	"strings"
	"testing"
	"time"

	"pran/internal/controller"
	"pran/internal/dataplane"
	"pran/internal/frame"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

// TestControllerScrapesTelemetryFromAgents is the cluster-observability
// acceptance path: two agents run real decode work with isolated registries,
// the controller scrapes both over ctrlproto, and the merged snapshot must
// contain the summed pool metrics, the per-cell gauges, and the controller's
// own cluster-state metrics.
func TestControllerScrapesTelemetryFromAgents(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cn, err := NewControllerNode(ln, ControllerConfig{
		Controller: controller.DefaultConfig(),
		Cells: []frame.CellConfig{
			{ID: 0, PCI: 0, Bandwidth: phy.BW1_4MHz, Antennas: 1},
			{ID: 1, PCI: 3, Bandwidth: phy.BW1_4MHz, Antennas: 1},
		},
		Period:    30 * time.Millisecond,
		Logf:      t.Logf,
		Telemetry: telemetry.New(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	runUntilCleanup(t, "controller Serve", cn.Serve, cn.Close)

	newAgent := func(id uint32) *AgentNode {
		an, err := NewAgentNode(AgentConfig{
			ControllerAddr: cn.Addr().String(),
			ServerID:       id,
			Cores:          2,
			Pool:           dataplane.Config{DeadlineScale: 1000, Policy: dataplane.EDF, Telemetry: telemetry.New(4)},
			TTIInterval:    5 * time.Millisecond,
			Seed:           int64(id),
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		runUntilCleanup(t, "agent Run", an.Run, an.Close)
		return an
	}
	a1 := newAgent(1)
	a2 := newAgent(2)

	for i := 0; i < 2; i++ {
		cn.Controller().ObserveCell(frame.CellID(i), 0.05)
	}
	waitFor(t, "cells assigned", 5*time.Second, func() bool {
		return a1.NumCells()+a2.NumCells() == 2
	})
	waitFor(t, "decode work recorded in agent telemetry", 5*time.Second, func() bool {
		total := uint64(0)
		for _, an := range []*AgentNode{a1, a2} {
			total += an.Telemetry().Snapshot().Counter(dataplane.MetricTasksCompleted)
		}
		return total > 5
	})

	merged, reported, err := cn.ScrapeTelemetry(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reported != 2 {
		t.Fatalf("scraped %d agents, want 2", reported)
	}
	if got := merged.Counter(dataplane.MetricTasksSubmitted); got == 0 {
		t.Fatal("merged snapshot has no submitted tasks")
	}
	if got := merged.Counter(dataplane.MetricTasksCompleted); got == 0 {
		t.Fatal("merged snapshot has no completed tasks")
	}
	// The merge must sum across agents: no single agent may account for the
	// merged total unless the other is truly at zero.
	c1 := a1.Telemetry().Snapshot().Counter(dataplane.MetricTasksCompleted)
	c2 := a2.Telemetry().Snapshot().Counter(dataplane.MetricTasksCompleted)
	if mergedC := merged.Counter(dataplane.MetricTasksCompleted); uint64(c1+c2) < mergedC {
		t.Fatalf("merged completed %d exceeds later per-agent sum %d+%d", mergedC, c1, c2)
	}
	// Histograms merged with their invariant intact.
	hs, ok := merged.Histogram(dataplane.MetricLatency)
	if !ok || hs.State.Count == 0 {
		t.Fatalf("merged latency histogram: ok=%v %+v", ok, hs.State)
	}
	var bucketSum uint64
	for _, b := range hs.State.Buckets {
		bucketSum += b
	}
	if hs.State.Count != hs.State.Low+hs.State.High+bucketSum {
		t.Fatalf("merged histogram violates count invariant: %+v", hs.State)
	}
	// Controller-local cluster metrics ride along in the merge.
	if v, ok := merged.Gauge("cluster.servers_active"); !ok || v < 1 {
		t.Fatalf("cluster state gauge missing from merge: %d ok=%v", v, ok)
	}
	// Per-cell demand gauges from the agents' TTI loops.
	foundDemand := false
	for _, g := range merged.Gauges {
		if strings.HasPrefix(g.Name, "cell.") && strings.HasSuffix(g.Name, ".demand_millicores") {
			foundDemand = true
		}
	}
	if !foundDemand {
		t.Fatalf("no per-cell demand gauge in merged snapshot:\n%s", merged)
	}
	// The merged snapshot renders as a cluster-wide exposition.
	text := merged.String()
	for _, want := range []string{"counter pool.tasks_completed", "gauge cluster.servers_active", "histogram pool.latency_s"} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	t.Logf("merged cluster snapshot:\n%s", text)
}

// TestScrapeTimeoutDoesNotWedge covers the degraded path: scraping with no
// agents returns immediately with the controller's local metrics only.
func TestScrapeTimeoutDoesNotWedge(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cn, err := NewControllerNode(ln, ControllerConfig{
		Controller: controller.DefaultConfig(),
		Cells:      []frame.CellConfig{{ID: 0, PCI: 0, Bandwidth: phy.BW1_4MHz, Antennas: 1}},
		Telemetry:  telemetry.New(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	runUntilCleanup(t, "controller Serve", cn.Serve, cn.Close)

	start := time.Now()
	merged, reported, err := cn.ScrapeTelemetry(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if reported != 0 {
		t.Fatalf("reported %d with no agents", reported)
	}
	if time.Since(start) > time.Second {
		t.Fatal("empty scrape took too long")
	}
	if _, ok := merged.Gauge("cluster.servers_active"); !ok {
		t.Fatal("local metrics missing from empty scrape")
	}
}
