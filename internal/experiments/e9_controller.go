package experiments

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/ctrlproto"
	"pran/internal/frame"
)

// placementBench times a full placement computation.
func placementBench(nCells, nServers int, policy controller.PlacePolicy) (time.Duration, error) {
	demands := make(map[frame.CellID]float64, nCells)
	for c := 0; c < nCells; c++ {
		demands[frame.CellID(c)] = 0.3 + float64(c%5)*0.25
	}
	var servers []cluster.Server
	for s := 0; s < nServers; s++ {
		servers = append(servers, cluster.Server{ID: cluster.ServerID(s), Cores: 16, SpeedFactor: 1, State: cluster.Active})
	}
	// Warm once (also validates feasibility).
	prev, err := controller.Place(demands, servers, nil, policy)
	if err != nil {
		return 0, err
	}
	const reps = 50
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := controller.Place(demands, servers, prev.Placement, policy); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / reps, nil
}

// ackEchoHandler acks nothing itself; it records command acks arriving from
// the agent so RTTs can be measured.
type ackEchoHandler struct {
	mu   sync.Mutex
	acks map[uint32]time.Time
}

func (h *ackEchoHandler) OnRegister(*ctrlproto.Agent, *ctrlproto.Register) error { return nil }
func (h *ackEchoHandler) OnHeartbeat(*ctrlproto.Agent, *ctrlproto.Heartbeat)     {}
func (h *ackEchoHandler) OnDisconnect(*ctrlproto.Agent, error)                   {}
func (h *ackEchoHandler) OnMessage(a *ctrlproto.Agent, m ctrlproto.Message) {
	if ack, ok := m.(*ctrlproto.Ack); ok {
		h.mu.Lock()
		h.acks[ack.Seq] = time.Now()
		h.mu.Unlock()
	}
}

// protocolRTT measures assign→ack round trips over loopback TCP.
func protocolRTT(rounds int) (p50, p99 float64, err error) {
	h := &ackEchoHandler{acks: make(map[uint32]time.Time)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := ctrlproto.NewServer(ln, h)
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	cl, err := ctrlproto.DialAgent(srv.Addr().String(), 1, 8, 1000)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	// Agent loop: ack every command.
	go func() {
		for {
			m, err := cl.Receive()
			if err != nil {
				return
			}
			if ac, ok := m.(*ctrlproto.AssignCell); ok {
				_ = cl.Ack(ac.Seq)
			}
		}
	}()
	// The server registers the agent on its own connection goroutine, which
	// may not have run yet when DialAgent returns.
	var agent *ctrlproto.Agent
	if !waitUntil(5*time.Second, func() bool {
		a, ok := srv.Agent(1)
		agent = a
		return ok
	}) {
		return 0, 0, fmt.Errorf("experiments: agent not registered")
	}
	var rtts []float64
	for i := 0; i < rounds; i++ {
		start := time.Now()
		seq, err := agent.AssignCell(uint16(i), 1, 50, 2)
		if err != nil {
			return 0, 0, err
		}
		for {
			h.mu.Lock()
			at, done := h.acks[seq]
			h.mu.Unlock()
			if done {
				rtts = append(rtts, at.Sub(start).Seconds())
				break
			}
			if time.Since(start) > 2*time.Second {
				return 0, 0, fmt.Errorf("experiments: ack %d timed out", seq)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	return percentile(rtts, 50), percentile(rtts, 99), nil
}

// E9Controller reconstructs the control-plane microbenchmark table:
// placement decision time vs scale, command round-trip over the control
// protocol, and the per-cell migration payload. Expected shape: placement
// stays far below the 100 ms control period even at 500 cells; protocol
// RTT is sub-millisecond on a datacenter network.
func E9Controller(quick bool) (Result, error) {
	cellCounts := []int{10, 100, 500}
	rttRounds := 200
	if quick {
		cellCounts = []int{10, 100}
		rttRounds = 50
	}
	res := Result{
		ID:      "E9",
		Title:   "Controller microbenchmarks: placement time, protocol RTT, migration payload",
		Header:  []string{"metric", "value"},
		Metrics: map[string]float64{},
	}
	for _, n := range cellCounts {
		servers := n/8 + 2
		for _, pol := range []controller.PlacePolicy{controller.FirstFitDecreasing, controller.WorstFit} {
			d, err := placementBench(n, servers, pol)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("placement %d cells / %d servers (%s)", n, servers, pol),
				fmt.Sprintf("%.1f µs", float64(d)/float64(time.Microsecond)),
			})
			if pol == controller.FirstFitDecreasing {
				res.Metrics[fmt.Sprintf("place_us_%dcells", n)] = float64(d) / float64(time.Microsecond)
			}
		}
	}
	p50, p99, err := protocolRTT(rttRounds)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows,
		[]string{"assign→ack RTT p50 (loopback)", fmt.Sprintf("%.1f µs", p50*1e6)},
		[]string{"assign→ack RTT p99 (loopback)", fmt.Sprintf("%.1f µs", p99*1e6)},
	)
	res.Metrics["rtt_p50_us"] = p50 * 1e6
	res.Metrics["rtt_p99_us"] = p99 * 1e6

	stateBytes, err := typicalHARQStateBytes()
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, []string{"cell migration payload (8 HARQ processes)", fmt.Sprintf("%d bytes", stateBytes)})
	res.Metrics["migration_bytes"] = float64(stateBytes)
	return res, nil
}

// percentile returns the p-th percentile (0–100) of xs by sorting a copy and
// interpolating linearly.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	pos := p / 100 * float64(len(c)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[i]*(1-frac) + c[i+1]*frac
}
