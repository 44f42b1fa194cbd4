package cluster

import (
	"math/rand"
	"testing"

	"laxgpu/internal/sim"
)

func TestRouterLeastLoadedTracksOutstandingWork(t *testing.T) {
	r := NewRouter(RouteLeastLoaded, 2)
	// First job lands somewhere; the second, arriving at the same instant,
	// must go to the other device because the first one's estimate is still
	// outstanding.
	a := r.Pick(0, 10*sim.Millisecond, 0)
	b := r.Pick(0, 10*sim.Millisecond, 1)
	if a == b {
		t.Fatalf("both simultaneous jobs routed to device %d", a)
	}
	// After far more than the outstanding estimate has elapsed, the decayed
	// load is zero everywhere and placement follows the tie-break again.
	c := r.Pick(sim.Second, sim.Microsecond, 2)
	d := r.Pick(sim.Second, 0, 3)
	if c == d {
		t.Fatalf("post-decay jobs both routed to device %d (load should have drained)", c)
	}
}

// parentLeastLoaded is the least-loaded arm as it stood while it still read
// device health: float drain-time scores divided by a per-device capacity,
// and a round-robin when every device is dead. Split never set health, so
// every capacity here stays 1.
type parentLeastLoaded struct {
	outstanding []sim.Time
	capacity    []float64
	lastArrival sim.Time
	rr          int
}

func newParentLeastLoaded(gpus int) *parentLeastLoaded {
	r := &parentLeastLoaded{outstanding: make([]sim.Time, gpus), capacity: make([]float64, gpus)}
	for g := range r.capacity {
		r.capacity[g] = 1
	}
	return r
}

func (r *parentLeastLoaded) pick(arrival, est sim.Time) int {
	elapsed := arrival - r.lastArrival
	if elapsed < 0 {
		elapsed = 0
	}
	for g := range r.outstanding {
		r.outstanding[g] -= sim.Time(float64(elapsed) * r.capacity[g])
		if r.outstanding[g] < 0 {
			r.outstanding[g] = 0
		}
	}
	r.lastArrival = arrival
	best := -1
	var bestLoad float64
	for g := range r.outstanding {
		if r.capacity[g] <= 0 {
			continue
		}
		load := float64(r.outstanding[g]+est) / r.capacity[g]
		if best < 0 || load < bestLoad {
			best, bestLoad = g, load
		}
	}
	if best < 0 {
		best = r.rr % len(r.outstanding)
		r.rr++
	}
	r.outstanding[best] += est
	return best
}

// TestLeastLoadedMatchesParentRouter pins Split's picks: the integer
// least-loaded arm places every job where the float, capacity-weighted arm
// it replaced did, over random non-decreasing arrivals that include
// same-instant bursts, zero estimates, idle gaps long enough to drain every
// device (all-zero ties) and loads deep enough to keep several queued.
func TestLeastLoadedMatchesParentRouter(t *testing.T) {
	const picks = 20000
	rng := rand.New(rand.NewSource(29))
	for gpus := 1; gpus <= 8; gpus++ {
		got, want := NewRouter(RouteLeastLoaded, gpus), newParentLeastLoaded(gpus)
		var now sim.Time
		for i := 0; i < picks; i++ {
			switch rng.Intn(8) {
			case 0, 1, 2: // same instant as the previous arrival
			case 3:
				now += sim.Millisecond // every device drains to zero
			default:
				now += sim.Time(rng.Intn(60)) * sim.Microsecond
			}
			// Estimates on a coarse grid (zero included) so equal loads,
			// and with them the lowest-index tie-break, come up often.
			est := sim.Time(rng.Intn(8)) * 25 * sim.Microsecond
			if g, w := got.Pick(now, est, i), want.pick(now, est); g != w {
				t.Fatalf("%d GPUs, pick %d (arrival %v, est %v): got device %d, parent router picked %d",
					gpus, i, now, est, g, w)
			}
		}
	}
}

// TestRouterHeadroomAvoidsDegradedNode pins health weighting: with equal
// reports, a node that lost half its CUs doubles its normalized drain time,
// so new work goes to the healthy node, which absorbs more of a burst.
func TestRouterHeadroomAvoidsDegradedNode(t *testing.T) {
	r := NewRouter(RouteHeadroom, 2)
	r.SetHealth(0, 0.5)
	first := r.Pick(0, sim.Millisecond, 0)
	if first != 1 {
		t.Fatalf("degraded node 0 still preferred (got %d)", first)
	}
	counts := [2]int{0: 0, 1: 1} // first pick recorded above
	for id := 1; id < 30; id++ {
		counts[r.Pick(0, sim.Millisecond, id)]++
	}
	if counts[1] <= counts[0] {
		t.Fatalf("healthy node got %d jobs, degraded got %d", counts[1], counts[0])
	}
}

func TestRouterSkipsDeadGPU(t *testing.T) {
	r := NewRouter(RouteHeadroom, 3)
	r.SetHealth(1, 0)
	for id := 0; id < 12; id++ {
		if g := r.Pick(0, sim.Microsecond, id); g == 1 {
			t.Fatalf("job %d routed to a dead device", id)
		}
	}
	// Everything dead: fall back to round-robin rather than refusing.
	r.SetHealth(0, 0)
	r.SetHealth(2, 0)
	seen := map[int]bool{}
	for id := 0; id < 6; id++ {
		seen[r.Pick(0, sim.Microsecond, id)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("all-dead fallback used only devices %v", seen)
	}
}

func TestNewRouterPanicsOnEmptyFleet(t *testing.T) {
	for _, policy := range []RoutingPolicy{RouteLeastLoaded, RouteHeadroom} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewRouter(%v, 0) did not panic", policy)
				}
			}()
			NewRouter(policy, 0)
		}()
	}
}

// TestRouterHealthRecovery pins the SetHealth round trip: a device marked
// fully dead receives nothing, and restoring health 1.0 makes it a candidate
// again on equal terms.
func TestRouterHealthRecovery(t *testing.T) {
	r := NewRouter(RouteHeadroom, 2)
	r.SetHealth(0, 0)
	for id := 0; id < 8; id++ {
		if g := r.Pick(0, sim.Microsecond, id); g != 1 {
			t.Fatalf("job %d routed to the dead device", id)
		}
	}
	// Recovery: back to full health, with no backlog bookkeeping — the
	// recovered device must win the next pick (device 1 is loaded).
	r.SetHealth(0, 1)
	if g := r.Pick(0, sim.Microsecond, 100); g != 0 {
		t.Fatalf("recovered device not picked (got %d)", g)
	}
}

// TestRouterTieBreakEquallyDegraded pins deterministic tie-breaking: two
// equally degraded, equally loaded devices must yield the lowest index, and
// repeated picks must alternate as the bookkeeping accrues — never flap on
// map order or randomness.
func TestRouterTieBreakEquallyDegraded(t *testing.T) {
	r := NewRouter(RouteHeadroom, 3)
	r.SetHealth(0, 0.5)
	r.SetHealth(1, 0.5)
	r.SetHealth(2, 0) // dead: must never appear
	var got []int
	for id := 0; id < 6; id++ {
		got = append(got, r.Pick(0, sim.Microsecond, id))
	}
	want := []int{0, 1, 0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick sequence %v, want %v", got, want)
		}
	}
}

// TestRouterHeadroomRoutesOnReports pins the gateway policy: picks follow
// the nodes' self-reported drain estimates, the work routed since a report
// counts against a node until its next report resets it.
func TestRouterHeadroomRoutesOnReports(t *testing.T) {
	r := NewRouter(RouteHeadroom, 2)
	r.SetHeadroom(0, 10*sim.Millisecond)
	r.SetHeadroom(1, sim.Millisecond)
	if g := r.Pick(0, sim.Microsecond, 0); g != 1 {
		t.Fatalf("pick = %d, want the node reporting less drain", g)
	}
	// Pile work onto node 1 between reports: the bookkeeping must
	// eventually push picks back to node 0.
	saw0 := false
	for id := 1; id < 20 && !saw0; id++ {
		saw0 = r.Pick(0, sim.Millisecond, id) == 0
	}
	if !saw0 {
		t.Fatal("sinceReport bookkeeping never redirected load to node 0")
	}
	// A fresh report wipes the bookkeeping: node 1 reporting empty wins.
	r.SetHeadroom(1, 0)
	if g := r.Pick(0, sim.Microsecond, 99); g != 1 {
		t.Fatalf("after fresh empty report, pick = %d, want 1", g)
	}
	// All dead: round-robin fallback rather than a blackhole.
	r.SetHealth(0, 0)
	r.SetHealth(1, 0)
	seen := map[int]bool{}
	for id := 0; id < 4; id++ {
		seen[r.Pick(0, sim.Microsecond, id)] = true
	}
	if len(seen) != 2 {
		t.Fatalf("all-dead fallback used only devices %v", seen)
	}
}
