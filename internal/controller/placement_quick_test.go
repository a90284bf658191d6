package controller

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pran/internal/cluster"
	"pran/internal/frame"
)

// TestPlaceInvariantsQuick property-checks the placer over random demand
// sets and server pools:
//
//  1. no server's packed load ever exceeds its capacity,
//  2. every demanded cell is placed (or the call errors with
//     ErrUnplaceable),
//  3. sticky re-placement never migrates a cell whose home still fits it.
func TestPlaceInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nCells := 1 + rng.Intn(60)
		nServers := 1 + rng.Intn(10)
		policy := FirstFitDecreasing
		if rng.Intn(2) == 1 {
			policy = WorstFit
		}
		demands := make(map[frame.CellID]float64, nCells)
		for c := 0; c < nCells; c++ {
			demands[frame.CellID(c)] = 0.1 + rng.Float64()*3
		}
		servers := make([]cluster.Server, nServers)
		for s := range servers {
			st := cluster.Active
			if rng.Intn(4) == 0 {
				st = cluster.Standby
			}
			servers[s] = cluster.Server{
				ID: cluster.ServerID(s), Cores: 2 + rng.Intn(14),
				SpeedFactor: 0.5 + rng.Float64(), State: st,
			}
		}
		res, err := Place(demands, servers, nil, policy)
		if errors.Is(err, ErrUnplaceable) {
			return true // legitimately infeasible draw
		}
		if err != nil {
			return false
		}
		// Invariant 1 + 2: full coverage within capacity.
		load := map[cluster.ServerID]float64{}
		for cell, d := range demands {
			srv, ok := res.Placement[cell]
			if !ok {
				return false
			}
			load[srv] += d
		}
		capOf := map[cluster.ServerID]float64{}
		for _, s := range servers {
			capOf[s.ID] = s.Capacity()
		}
		for srv, l := range load {
			if l > capOf[srv]+1e-9 {
				return false
			}
		}
		// Invariant 3: re-placing identical demands moves nothing.
		res2, err := Place(demands, servers, res.Placement, policy)
		if err != nil || res2.Migrations != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestScaleTargetQuick property-checks the scaling policy: the target never
// under-provisions the forecast (capacity ≥ demand × (1+headroom) whenever
// enough servers could exist), and hysteresis only ever steps down by one.
func TestScaleTargetQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &ScalePolicy{
			Headroom:   rng.Float64() * 0.5,
			DownFactor: 0.5 + rng.Float64()*0.4,
			DownRounds: 1 + rng.Intn(5),
		}
		if s.Validate() != nil {
			return false
		}
		perServer := 4 + rng.Float64()*12
		current := 1 + rng.Intn(20)
		for round := 0; round < 50; round++ {
			demand := rng.Float64() * 150
			next := s.Target(demand, perServer, current)
			// Never more than one step down.
			if next < current-1 {
				return false
			}
			// Scale-ups must cover the forecast with headroom.
			if next > current {
				if float64(next)*perServer < demand*(1+s.Headroom)-1e-9 {
					return false
				}
			}
			current = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// closeEnough compares two floats to within float-summation-reordering
// noise (map iteration order varies the accumulation order of demand sums).
func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+math.Abs(a))
}

// TestIncrementalMatchesFullRecomputeQuick is the incremental placer's
// equivalence property: two controllers fed identical demand churn, cell
// teardowns, and server failures — one with the incremental fast path, one
// forced to recompute fully every round — must report bit-identical
// placements, migration counts, and scaling decisions on every round. The
// fast path only ever claims "the previous answer is still the answer", so
// any divergence is a soundness bug, not a tuning difference.
func TestIncrementalMatchesFullRecomputeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func(disable bool) *Controller {
			cl, err := cluster.Uniform(8, 4, 4, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(DefaultConfig(), cl)
			if err != nil {
				t.Fatal(err)
			}
			c.fullRecompute = disable
			return c
		}
		inc, full := build(false), build(true)

		nCells := 20 + rng.Intn(80)
		base := make([]float64, nCells)
		for i := range base {
			base[i] = 0.05 + rng.Float64()*0.3
		}
		failed := map[cluster.ServerID]bool{}
		for round := 0; round < 40; round++ {
			switch rng.Intn(10) {
			case 0:
				// Quiet round: no observations at all. With a stable pool
				// this is the canonical fast-path round.
			case 1:
				// Tear down a random cell on both controllers.
				victim := frame.CellID(rng.Intn(nCells))
				inc.Monitor().Forget(victim)
				full.Monitor().Forget(victim)
			case 2:
				// Fail a not-yet-failed server on both (structural change).
				id := cluster.ServerID(rng.Intn(8))
				if !failed[id] && len(failed) < 6 {
					failed[id] = true
					repA, errA := inc.OnServerFailure(id)
					repB, errB := full.OnServerFailure(id)
					if (errA == nil) != (errB == nil) {
						t.Logf("seed %d round %d: failure err mismatch %v vs %v", seed, round, errA, errB)
						return false
					}
					if len(repA.LostCells) != len(repB.LostCells) || len(repA.Dropped) != len(repB.Dropped) {
						t.Logf("seed %d round %d: failure report mismatch", seed, round)
						return false
					}
				}
			default:
				// Perturb a random subset of cells; small deltas most
				// rounds so the incremental path actually engages.
				scale := 0.02
				if rng.Intn(4) == 0 {
					scale = 0.5 // occasional big swing forces repacking
				}
				for i := 0; i < 1+rng.Intn(nCells); i++ {
					c := rng.Intn(nCells)
					d := base[c] * (1 + scale*(rng.Float64()*2-1))
					inc.ObserveCell(frame.CellID(c), d)
					full.ObserveCell(frame.CellID(c), d)
				}
			}
			repA, errA := inc.Step()
			repB, errB := full.Step()
			if (errA == nil) != (errB == nil) {
				t.Logf("seed %d round %d: step err mismatch %v vs %v", seed, round, errA, errB)
				return false
			}
			if errA != nil {
				continue
			}
			// Demand and Forecast are sums over a map, so their last ULP
			// depends on iteration order; everything discrete is exact.
			if !closeEnough(repA.Demand, repB.Demand) || !closeEnough(repA.Forecast, repB.Forecast) ||
				repA.Active != repB.Active || repA.Standby != repB.Standby ||
				repA.Promotions != repB.Promotions || repA.Demotions != repB.Demotions ||
				repA.Migrations != repB.Migrations || repA.Unplaceable != repB.Unplaceable ||
				len(repA.Dropped) != len(repB.Dropped) {
				t.Logf("seed %d round %d: step report mismatch %+v vs %+v", seed, round, repA, repB)
				return false
			}
			pa, pb := inc.Placement(), full.Placement()
			if len(pa) != len(pb) {
				t.Logf("seed %d round %d: placement size %d vs %d", seed, round, len(pa), len(pb))
				return false
			}
			for cell, srv := range pa {
				if pb[cell] != srv {
					t.Logf("seed %d round %d: cell %d on %d vs %d", seed, round, cell, srv, pb[cell])
					return false
				}
			}
		}
		// The oracle controller must never have taken the fast path; the
		// incremental one must have taken it at least once (quiet rounds and
		// small perturbations exist in every 40-round trace).
		if fast, _ := full.PlaceStats(); fast != 0 {
			t.Logf("seed %d: oracle took %d fast rounds", seed, fast)
			return false
		}
		if fast, _ := inc.PlaceStats(); fast == 0 {
			t.Logf("seed %d: incremental controller never took the fast path", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
