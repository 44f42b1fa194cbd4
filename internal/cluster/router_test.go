package cluster

import (
	"testing"

	"laxgpu/internal/sim"
)

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
	defer func() {
		if recover() == nil {
			t.Fatal("NewRouter(RouteHeadroom, 0) did not panic")
		}
	}()
	NewRouter(RouteHeadroom, 0)
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
