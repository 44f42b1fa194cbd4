package workload

import (
	"testing"

	"laxgpu/internal/sim"
)

// TestPooledSetAddAndRelease: Add numbers the jobs densely and keeps their
// values, past the pooled slab too; Release empties the set, zeroes the jobs
// it stored (so the pool holds nothing of them) and leaves any other set
// alone; and a later NewPooledSet is built in the released storage.
func TestPooledSetAddAndRelease(t *testing.T) {
	s := NewPooledSet("scenario:x", ScenarioRate, 7, 4)
	for i := range 6 {
		s.Add(Job{ID: 99, Benchmark: "LSTM", Arrival: sim.Time(i), Cohort: "c"})
	}
	for i, j := range s.Jobs {
		if j.ID != i || j.Arrival != sim.Time(i) || j.Benchmark != "LSTM" || j.Cohort != "c" {
			t.Fatalf("job %d reads %+v", i, *j)
		}
	}
	if s.Benchmark != "scenario:x" || s.Rate != ScenarioRate || s.Seed != 7 {
		t.Fatalf("set header %q %v %d", s.Benchmark, s.Rate, s.Seed)
	}
	first := s.Jobs[0]
	s.Release()
	if s.Jobs != nil || first.Benchmark != "" || first.Cohort != "" || first.Arrival != 0 {
		t.Fatalf("released set keeps %d jobs; its first job reads %+v", len(s.Jobs), *first)
	}
	s.Release() // a second Release does nothing

	plain := &JobSet{Jobs: []*Job{{ID: 0}}}
	plain.Release()
	if len(plain.Jobs) != 1 {
		t.Fatal("Release emptied a set NewPooledSet did not build")
	}

	// sync.Pool may drop a Put (the race detector drops a random quarter),
	// so retry until a new set is built in released storage.
	for range 32 {
		old := NewPooledSet("a", ScenarioRate, 1, 4)
		old.Add(Job{Arrival: 1})
		slot := old.Jobs[0]
		old.Release()
		s := NewPooledSet("b", ScenarioRate, 2, 4)
		s.Add(Job{Arrival: 5})
		if j := s.Jobs[0]; j == slot {
			if len(s.Jobs) != 1 || j.ID != 0 || j.Arrival != 5 {
				t.Fatalf("a set in released storage reads %d jobs, first %+v", len(s.Jobs), *j)
			}
			return
		}
	}
	t.Fatal("NewPooledSet never reused released storage")
}
