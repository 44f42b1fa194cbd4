package cp

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// releaseOutcome runs set under FIFO on sys and renders every job's outcome
// and the device's totals.
func releaseOutcome(sys *System) string {
	sys.Run()
	out := fmt.Sprintf("now=%v completed=%d wgs=%d energy=%v", sys.Now(), sys.Completed(),
		sys.Device().Counters().TotalCompleted(), sys.Device().Energy().DynamicJoules())
	for _, jr := range sys.Jobs() {
		out += fmt.Sprintf(" %d:%v/%v/%v/q%d", jr.Job.ID, jr.State(), jr.FirstDispatch, jr.FinishTime, jr.QueueID)
	}
	return out
}

// TestReleaseRecyclesOnlyDrainedBatchRuns: a finished batch run handed back
// by Release is the shell the next NewSystem builds in — same engine,
// device and slab when the trace fits — and the system built there runs
// exactly as a new one, a larger trace getting a new slab and another GPU
// configuration a rebuilt device. A system that never ran, an online one, one
// with faults installed, one with the watchdog armed, one whose run was
// cancelled before it began, and one cancelled between arrivals with its
// engine drained are not taken.
func TestReleaseRecyclesOnlyDrainedBatchRuns(t *testing.T) {
	// One P: a sync.Pool keeps what is put in the putting P's private slot,
	// which a Get on another P does not see.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	desc := testDesc("k", 6, 256, 10*sim.Microsecond)
	small := makeSet(12, 3, desc, 4*sim.Microsecond, sim.Millisecond)
	large := makeSet(40, 2, desc, 3*sim.Microsecond, sim.Millisecond)
	want := map[*workload.JobSet]string{
		small: releaseOutcome(NewSystem(smallConfig(), small, &fifoPolicy{})),
		large: releaseOutcome(NewSystem(smallConfig(), large, &fifoPolicy{})),
	}

	// Each refused system is released, and the next NewSystem must not be
	// built in it.
	refused := map[string]func() *System{
		"never run": func() *System { return NewSystem(smallConfig(), small, &fifoPolicy{}) },
		"online": func() *System {
			s := NewSystem(smallConfig(), &workload.JobSet{}, &fifoPolicy{})
			s.StartOnline()
			return s
		},
		"faulted": func() *System {
			s := NewSystem(smallConfig(), small, &fifoPolicy{})
			s.InstallFaults(&scriptInjector{}, nil)
			s.Run()
			return s
		},
		"watchdog": func() *System {
			cfg := smallConfig()
			cfg.Recover = true
			s := NewSystem(cfg, small, &fifoPolicy{})
			s.Run()
			return s
		},
		"cancelled": func() *System {
			s := NewSystem(smallConfig(), small, &fifoPolicy{})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := s.RunContext(ctx); err == nil {
				t.Fatal("cancelled run returned nil")
			}
			return s
		},
		"cancelled mid-trace": func() *System {
			// The first half of the trace runs and drains; the context is
			// cancelled as the next job is refused, so the run stops between
			// arrivals with its engine empty and the rest never submitted.
			gapped := makeSet(12, 3, desc, 4*sim.Microsecond, sim.Millisecond)
			for _, j := range gapped.Jobs[6:] {
				j.Arrival += sim.Millisecond
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pol := &fifoPolicy{admitFn: func(jr *JobRun) bool {
				if jr.Job.ID == 6 {
					cancel()
					return false
				}
				return true
			}}
			s := NewSystem(smallConfig(), gapped, pol)
			if err := s.RunContext(ctx); err == nil {
				t.Fatal("cancelled run returned nil")
			}
			if s.Engine().Pending() != 0 || !s.Job(5).Done() || s.Job(7).State() != JobPending {
				t.Fatalf("run stopped with %d events queued, job 5 %v, job 7 %v; want a drained engine between arrivals",
					s.Engine().Pending(), s.Job(5).State(), s.Job(7).State())
			}
			return s
		},
	}
	for name, build := range refused {
		s := build()
		s.Release()
		if next := NewSystem(smallConfig(), small, &fifoPolicy{}); next == s {
			t.Errorf("%s: NewSystem built in a system Release must refuse", name)
		}
	}

	// A drained run is recycled, into traces of either size and onto
	// another device, and each recycled system runs as a new one does.
	other := smallConfig()
	other.GPU.NumCUs = 4
	want[nil] = releaseOutcome(NewSystem(other, small, &fifoPolicy{}))
	prev := NewSystem(smallConfig(), small, &fifoPolicy{})
	releaseOutcome(prev)
	for _, step := range []struct {
		set *workload.JobSet
		cfg SystemConfig
	}{{large, smallConfig()}, {small, smallConfig()}, {small, other}, {large, smallConfig()}} {
		slab, fits := &prev.slab[:1][0], len(step.set.Jobs) <= cap(prev.slab)
		prev.Release()
		s := NewSystem(step.cfg, step.set, &fifoPolicy{})
		if !raceEnabled {
			if s != prev {
				t.Fatalf("NewSystem after a drained run's Release built a new system")
			}
			if kept := &s.slab[:1][0] == slab; kept != fits {
				t.Errorf("%d jobs: slab kept %v, want %v", len(step.set.Jobs), kept, fits)
			}
		}
		key := step.set
		if step.cfg.GPU != smallConfig().GPU {
			key = nil
		}
		if got := releaseOutcome(s); got != want[key] {
			t.Fatalf("recycled system ran %d jobs on %d CUs as\n%s\nwant\n%s", len(step.set.Jobs), step.cfg.GPU.NumCUs, got, want[key])
		}
		prev = s
	}
}
