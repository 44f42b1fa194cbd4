package gateway

import (
	"reflect"
	"testing"

	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
)

// checkTerminalCount asserts the maintained terminal counter behind
// Fleet().Terminal equals a brute-force count over the journal.
func checkTerminalCount(t *testing.T, j *journal) {
	t.Helper()
	want := 0
	for _, fj := range j.fleetJobs() {
		if fj.Terminal != "" {
			want++
		}
	}
	if j.terminals != want {
		t.Fatalf("terminal counter = %d, the journal holds %d terminal entries", j.terminals, want)
	}
}

// shiftJournal is the journal order as it was kept before eviction became
// O(1): one slice, the oldest terminal entry removed by shifting everything
// behind it. The property test replays every step against it.
type shiftJournal struct {
	max      int
	order    []int64
	terminal map[int64]bool
}

func (j *shiftJournal) add(id int64) {
	j.order = append(j.order, id)
	for len(j.order) > j.max {
		evicted := false
		for i, old := range j.order {
			if j.terminal[old] {
				j.order = append(j.order[:i], j.order[i+1:]...)
				delete(j.terminal, old)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
}

// TestJournalEvictionMatchesShiftOracle drives a few thousand random
// open/close interleavings through a 64-entry journal: after every step the
// journal's ID sequence equals the slice-shift oracle's, no open entry is ever
// evicted, and the terminal counter stays exact — with stretches where more
// than 64 jobs are open at once, so the still-open-head fallback and the
// over-cap journal both run.
func TestJournalEvictionMatchesShiftOracle(t *testing.T) {
	const maxRecords = 64
	j := newJournal(maxRecords)
	oracle := &shiftJournal{max: maxRecords, terminal: map[int64]bool{}}
	rng := sim.NewRNG(17)
	var open []*entry
	overCap := false
	for step := 0; step < 6000; step++ {
		// Phases of 500 steps alternate between completing eagerly and
		// letting the open set grow past the cap.
		pSubmit := 0.5
		if (step/500)%3 == 2 {
			pSubmit = 0.9
		}
		switch {
		case len(open) == 0 || rng.Float64() < pSubmit:
			e := j.open(&Job{ID: int64(step)}, 0)
			e.dispatches = []string{"node0"}
			oracle.add(e.job.ID)
			if rng.Float64() < 0.9 {
				e.accepted = true
				open = append(open, e)
			} else {
				j.close(e, verify.FleetRejected) // rejected at admission: terminal on arrival
				oracle.terminal[e.job.ID] = true
			}
		default:
			k := rng.Intn(len(open))
			if rng.Float64() < 0.5 {
				k = 0 // oldest first, the common order
			}
			if !j.close(open[k], verify.FleetDone) {
				t.Fatalf("step %d: first close of job %d reported a duplicate", step, open[k].job.ID)
			}
			oracle.terminal[open[k].job.ID] = true
			open = append(open[:k], open[k+1:]...)
		}

		jobs := j.fleetJobs()
		got := make([]int64, len(jobs))
		for i, fj := range jobs {
			got[i] = fj.ID
		}
		checkTerminalCount(t, &j)
		if !reflect.DeepEqual(got, oracle.order) {
			t.Fatalf("step %d: journal order diverged from the slice-shift oracle\n got %v\nwant %v", step, got, oracle.order)
		}
		for _, e := range open {
			if j.entries[e.job.ID] != e {
				t.Fatalf("step %d: open job %d was evicted", step, e.job.ID)
			}
		}
		if len(got) > maxRecords {
			overCap = true
		}
	}
	if !overCap {
		t.Error("the open set never pushed the journal over its cap: the fallback path did not run")
	}
	for _, e := range open {
		j.close(e, verify.FleetDone)
		if j.close(e, verify.FleetDone) {
			t.Fatalf("second close of job %d won", e.job.ID)
		}
		select {
		case <-e.done:
		default:
			t.Fatalf("job %d closed without waking its waiters", e.job.ID)
		}
	}
	checkTerminalCount(t, &j)
	if vs := verify.CheckFleetScaled(0, j.fleetJobs(), nil); len(vs) != 0 {
		t.Errorf("journal violations at quiescence: %v", vs)
	}
}
