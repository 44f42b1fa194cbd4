package cluster

import (
	"testing"

	"laxgpu/internal/faults"
	"laxgpu/internal/sim"
)

func TestParseRoutingPolicy(t *testing.T) {
	cases := map[string]RoutingPolicy{
		"round-robin": RouteRoundRobin, "rr": RouteRoundRobin,
		"least-loaded": RouteLeastLoaded, "ll": RouteLeastLoaded,
		"job-hash": RouteJobHash, "hash": RouteJobHash,
		"headroom": RouteHeadroom, "hr": RouteHeadroom,
	}
	for in, want := range cases {
		got, err := ParseRoutingPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseRoutingPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseRoutingPolicy("nope"); err == nil {
		t.Error("unknown routing name accepted")
	}
}

func TestRouterRoundRobinCycles(t *testing.T) {
	r := NewRouter(RouteRoundRobin, 3)
	for i := 0; i < 9; i++ {
		if g := r.Pick(0, sim.Microsecond, i); g != i%3 {
			t.Fatalf("pick %d routed to %d, want %d", i, g, i%3)
		}
	}
}

func TestRouterJobHashPins(t *testing.T) {
	r := NewRouter(RouteJobHash, 4)
	for id := 0; id < 16; id++ {
		if g := r.Pick(0, sim.Microsecond, id); g != id%4 {
			t.Fatalf("job %d routed to %d, want %d", id, g, id%4)
		}
	}
}

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

func TestRouterLeastLoadedAvoidsDegradedGPU(t *testing.T) {
	r := NewRouter(RouteLeastLoaded, 2)
	// Equal standing load on both devices, but device 0 lost half its CUs:
	// its normalized drain time doubles, so new work must go to device 1.
	r.SetHealth(0, 0.5)
	first := r.Pick(0, sim.Millisecond, 0)
	if first != 1 {
		t.Fatalf("degraded device 0 still preferred (got %d)", first)
	}
	// Keep offering simultaneous equal jobs: the healthy device absorbs
	// proportionally more of them.
	counts := [2]int{0: 0, 1: 1} // first pick recorded above
	for id := 1; id < 30; id++ {
		counts[r.Pick(0, sim.Millisecond, id)]++
	}
	if counts[1] <= counts[0] {
		t.Fatalf("healthy device got %d jobs, degraded got %d", counts[1], counts[0])
	}
}

func TestRouterSkipsDeadGPU(t *testing.T) {
	r := NewRouter(RouteLeastLoaded, 3)
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
			t.Fatal("NewRouter(_, 0) did not panic")
		}
	}()
	NewRouter(RouteRoundRobin, 0)
}

// TestHealthScheduleShiftsRouting pins the satellite requirement: a fault
// plan's scheduled CU retirements must change least-loaded routing decisions
// once arrivals pass the retirement time.
func TestHealthScheduleShiftsRouting(t *testing.T) {
	spec, err := faults.ParseSpec("retire=8@1ms")
	if err != nil {
		t.Fatal(err)
	}
	specs := []faults.Spec{spec, {Recover: true}}
	h := NewHealthSchedule(8, specs)

	r := NewRouter(RouteLeastLoaded, 2)
	// Before the retirement both devices are candidates.
	h.Apply(r, 0)
	before := map[int]bool{}
	for id := 0; id < 4; id++ {
		before[r.Pick(0, sim.Microsecond, id)] = true
	}
	if !before[0] || !before[1] {
		t.Fatalf("pre-fault routing used only %v", before)
	}
	// After all 8 CUs retire, device 0 is dead and every pick lands on 1.
	h.Apply(r, 2*sim.Millisecond)
	for id := 4; id < 12; id++ {
		if g := r.Pick(2*sim.Millisecond, sim.Microsecond, id); g != 0 {
			continue
		}
		t.Fatalf("job %d routed to the fully retired device", id)
	}
}

// TestHealthBlindPoliciesIgnoreFaults pins the complementary invariant:
// round-robin and job-hash deliberately ignore health, so their decisions
// are identical with and without a fault plan.
func TestHealthBlindPoliciesIgnoreFaults(t *testing.T) {
	spec, err := faults.ParseSpec("retire=8@0s")
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []RoutingPolicy{RouteRoundRobin, RouteJobHash} {
		clean := NewRouter(policy, 3)
		faulted := NewRouter(policy, 3)
		h := NewHealthSchedule(8, []faults.Spec{spec, {Recover: true}, {Recover: true}})
		for id := 0; id < 12; id++ {
			h.Apply(faulted, sim.Millisecond)
			a := clean.Pick(sim.Millisecond, sim.Microsecond, id)
			b := faulted.Pick(sim.Millisecond, sim.Microsecond, id)
			if a != b {
				t.Fatalf("%v: health changed decision for job %d (%d vs %d)", policy, id, a, b)
			}
		}
	}
}

// TestRouterHealthRecovery pins the SetHealth round trip: a device marked
// fully dead receives nothing, and restoring health 1.0 makes it a candidate
// again on equal terms.
func TestRouterHealthRecovery(t *testing.T) {
	for _, policy := range []RoutingPolicy{RouteLeastLoaded, RouteHeadroom} {
		r := NewRouter(policy, 2)
		r.SetHealth(0, 0)
		for id := 0; id < 8; id++ {
			if g := r.Pick(0, sim.Microsecond, id); g != 1 {
				t.Fatalf("%v: job %d routed to the dead device", policy, id)
			}
		}
		// Recovery: back to full health, with no backlog bookkeeping — the
		// recovered device must win the next pick (device 1 is loaded).
		r.SetHealth(0, 1)
		if g := r.Pick(0, sim.Microsecond, 100); g != 0 {
			t.Fatalf("%v: recovered device not picked (got %d)", policy, g)
		}
	}
}

// TestRouterTieBreakEquallyDegraded pins deterministic tie-breaking: two
// equally degraded, equally loaded devices must yield the lowest index, and
// repeated picks must alternate as the bookkeeping accrues — never flap on
// map order or randomness.
func TestRouterTieBreakEquallyDegraded(t *testing.T) {
	for _, policy := range []RoutingPolicy{RouteLeastLoaded, RouteHeadroom} {
		r := NewRouter(policy, 3)
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
				t.Fatalf("%v: pick sequence %v, want %v", policy, got, want)
			}
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

// TestHealthScheduleApplyEdges pins Apply's consumption semantics: events
// fire once (idempotent re-Apply), events at time zero apply immediately,
// stacked retirements accumulate, and retiring every CU clamps the fraction
// to exactly 0.
func TestHealthScheduleApplyEdges(t *testing.T) {
	spec, err := faults.ParseSpec("retire=4@0s,retire=4@2ms")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHealthSchedule(8, []faults.Spec{spec, {Recover: true}})
	r := NewRouter(RouteLeastLoaded, 2)

	h.Apply(r, 0) // the t=0 event fires immediately: health 0.5
	got := map[int]bool{}
	for id := 0; id < 4; id++ {
		got[r.Pick(0, sim.Microsecond, id)] = true
	}
	if !got[1] {
		t.Fatalf("healthy device unused after partial retirement: %v", got)
	}

	// Re-applying at the same instant must not double-consume or rewind.
	h.Apply(r, 0)
	h.Apply(r, sim.Millisecond)

	// The second retirement kills the device outright (8 of 8 CUs gone).
	h.Apply(r, 2*sim.Millisecond)
	for id := 0; id < 8; id++ {
		if g := r.Pick(2*sim.Millisecond, sim.Microsecond, id); g == 0 {
			t.Fatal("fully retired device still picked")
		}
	}
}
