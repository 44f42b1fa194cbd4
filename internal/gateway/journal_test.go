package gateway

import (
	"reflect"
	"testing"

	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// checkTerminalCount asserts the maintained terminal counter behind
// Fleet().Terminal equals a brute-force count over the journal.
func checkTerminalCount(t *testing.T, gw *Gateway) {
	t.Helper()
	want := 0
	for _, fj := range gw.FleetJobs() {
		if fj.Terminal != "" {
			want++
		}
	}
	if got := gw.Fleet().Terminal; got != want {
		t.Fatalf("Fleet().Terminal = %d, the journal holds %d terminal entries", got, want)
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
// submit/terminal interleavings through a gateway with a 64-entry journal:
// after every step the journal's ID sequence equals the slice-shift oracle's,
// no open entry is ever evicted, and the terminal counter stays exact — with
// stretches where more than 64 jobs are open at once, so the still-open-head
// fallback and the over-cap journal both run.
func TestJournalEvictionMatchesShiftOracle(t *testing.T) {
	const maxRecords = 64
	clock := serve.NewManualClock()
	fb := &fakeBackend{name: "node0", h: Headroom{Capacity: 1}, verdict: Verdict{Accepted: true}}
	gw, err := New(Options{Backends: []Backend{fb}, Clock: clock, Seed: 1, MaxRecords: maxRecords})
	if err != nil {
		t.Fatal(err)
	}
	gw.TickProbes(0)
	bench, err := workload.FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}

	oracle := &shiftJournal{max: maxRecords, terminal: map[int64]bool{}}
	rng := sim.NewRNG(17)
	type openJob struct {
		id   int64
		done func(Outcome)
	}
	var open []openJob
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
			fb.verdict = Verdict{Accepted: rng.Float64() < 0.9}
			id, v, _ := gw.Submit(bench, sim.Second, Standard)
			oracle.add(id)
			if v.Accepted {
				open = append(open, openJob{id, fb.dones[len(fb.dones)-1]})
			} else {
				oracle.terminal[id] = true // rejected at admission: terminal on arrival
			}
			fb.submitted, fb.dones = fb.submitted[:0], fb.dones[:0]
		default:
			k := rng.Intn(len(open))
			if rng.Float64() < 0.5 {
				k = 0 // oldest first, the common order
			}
			open[k].done(Outcome{Terminal: verify.FleetDone, Met: true})
			oracle.terminal[open[k].id] = true
			open = append(open[:k], open[k+1:]...)
		}

		jobs := gw.FleetJobs()
		got := make([]int64, len(jobs))
		terminals := 0
		for i, fj := range jobs {
			got[i] = fj.ID
			if fj.Terminal != "" {
				terminals++
			}
		}
		gw.mu.Lock()
		counted := gw.terminals
		gw.mu.Unlock()
		if counted != terminals {
			t.Fatalf("step %d: terminal counter %d, journal holds %d terminal entries", step, counted, terminals)
		}
		if !reflect.DeepEqual(got, oracle.order) {
			t.Fatalf("step %d: journal order diverged from the slice-shift oracle\n got %v\nwant %v", step, got, oracle.order)
		}
		for _, o := range open {
			if _, ok := gw.Status(o.id); !ok {
				t.Fatalf("step %d: open job %d was evicted", step, o.id)
			}
		}
		if len(got) > maxRecords {
			overCap = true
		}
	}
	if !overCap {
		t.Error("the open set never pushed the journal over its cap: the fallback path did not run")
	}
	for _, o := range open {
		o.done(Outcome{Terminal: verify.FleetDone, Met: true})
	}
	checkTerminalCount(t, gw)
	if vs := gw.Check(clock.Now()); len(vs) != 0 {
		t.Errorf("journal violations at quiescence: %v", vs)
	}
}
