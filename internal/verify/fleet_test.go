package verify

import (
	"testing"

	"laxgpu/internal/sim"
)

func rules(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Rule
	}
	return out
}

func TestCheckFleetCleanJournal(t *testing.T) {
	jobs := []FleetJob{
		{ID: 0, Accepted: true, Terminal: FleetDone, Dispatches: []string{"node0"}},
		{ID: 1, Accepted: true, Terminal: FleetDone, Dispatches: []string{"node1", "node2"}},
		{ID: 2, Accepted: true, Terminal: FleetFallback, Dispatches: []string{"node1", "cpu"}},
		{ID: 3, Accepted: false, Terminal: FleetRejected},
		{ID: 4, Accepted: false},
		// A node declared dead delivered its completion late: one duplicate
		// from two dispatches is legal.
		{ID: 5, Accepted: true, Terminal: FleetDone, Dispatches: []string{"node0", "node2"}, Duplicates: 1},
	}
	if vs := CheckFleet(sim.Second, jobs); len(vs) != 0 {
		t.Fatalf("clean journal flagged: %v", vs)
	}
}

func TestCheckFleetLostJob(t *testing.T) {
	jobs := []FleetJob{
		{ID: 7, Accepted: true, Terminal: "", Dispatches: []string{"node1"}},
	}
	vs := CheckFleet(2*sim.Second, jobs)
	if len(vs) != 1 || vs[0].Rule != "fleet-no-lost-jobs" {
		t.Fatalf("violations = %v, want one fleet-no-lost-jobs", vs)
	}
	if vs[0].Job != 7 || vs[0].At != 2*sim.Second {
		t.Errorf("violation = %+v, want job 7 at 2s", vs[0])
	}
}

func TestCheckFleetAcceptedNeverDispatched(t *testing.T) {
	vs := CheckFleet(0, []FleetJob{{ID: 1, Accepted: true, Terminal: FleetDone}})
	if got := rules(vs); len(got) != 1 || got[0] != "fleet-no-lost-jobs" {
		t.Fatalf("rules = %v, want [fleet-no-lost-jobs]", got)
	}
}

func TestCheckFleetRejectResurrected(t *testing.T) {
	vs := CheckFleet(0, []FleetJob{
		{ID: 1, Accepted: false, Terminal: FleetDone, Dispatches: []string{"node0"}},
		{ID: 2, Accepted: false, Terminal: FleetRejected, Dispatches: []string{"node0", "node1"}},
	})
	got := rules(vs)
	if len(got) != 2 || got[0] != "fleet-reject-final" || got[1] != "fleet-reject-final" {
		t.Fatalf("rules = %v, want two fleet-reject-final", got)
	}
}

func TestCheckFleetDuplicateTerminals(t *testing.T) {
	vs := CheckFleet(0, []FleetJob{
		// Two duplicates but only one extra dispatch: a node reported the
		// same terminal twice, which the journal must never let through.
		{ID: 1, Accepted: true, Terminal: FleetDone, Dispatches: []string{"a", "b"}, Duplicates: 2},
		{ID: 2, Accepted: false, Duplicates: 1},
	})
	got := rules(vs)
	if len(got) != 2 || got[0] != "fleet-terminal-once" || got[1] != "fleet-terminal-once" {
		t.Fatalf("rules = %v, want two fleet-terminal-once", got)
	}
}

func TestCheckFleetDoubleBookedID(t *testing.T) {
	vs := CheckFleet(0, []FleetJob{
		{ID: 3, Accepted: true, Terminal: FleetDone, Dispatches: []string{"a"}},
		{ID: 3, Accepted: true, Terminal: FleetDone, Dispatches: []string{"b"}},
	})
	if got := rules(vs); len(got) != 1 || got[0] != "fleet-unique-id" {
		t.Fatalf("rules = %v, want [fleet-unique-id]", got)
	}
}

func TestCheckFleetUnknownTerminal(t *testing.T) {
	vs := CheckFleet(0, []FleetJob{
		{ID: 9, Accepted: true, Terminal: "vanished", Dispatches: []string{"a"}},
	})
	if got := rules(vs); len(got) != 1 || got[0] != "fleet-no-lost-jobs" {
		t.Fatalf("rules = %v, want [fleet-no-lost-jobs]", got)
	}
}
