package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
)

// cancelAfter is a context whose Err starts reporting context.Canceled at
// its polls-th call. A simulation polls Err once before its first event and
// then every few dozen events, so the cancellation lands at the same event
// of the same cell on every run.
type cancelAfter struct {
	context.Context               // Background: no deadline, no values
	done            chan struct{} // never closed; a non-nil Done arms the polls
	polls           atomic.Int64
}

func newCancelAfter(polls int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background(), done: make(chan struct{})}
	c.polls.Store(polls)
	return c
}

func (c *cancelAfter) Done() <-chan struct{} { return c.done }

func (c *cancelAfter) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSweepCellsIndependentOfOrder: a cell's summary does not depend on what
// the process simulated before it. The sim-sweep grid (Table 5's schedulers
// plus LAX-SW and LAX-CPU, 8 benchmarks, 64 jobs a cell) runs through one
// Runner per order — forward, reversed, and interleaved from both ends — at
// pool width 1 and 4. Between chunks of the grid run a faulted cell with
// recovery on, an observed RunSystem cell, cells at half and twice the job
// count, and a one-cell sweep cancelled mid-simulation; every summary must
// equal, field for field, the one a fresh runner computes for that cell
// alone.
func TestSweepCellsIndependentOfOrder(t *testing.T) {
	jobs := 64
	if testing.Short() {
		jobs = 32
	}
	scheds := append(slices.Clone(sched.Table5Schedulers), "LAX-SW", "LAX-CPU")
	cells := GridCells(scheds, workload.HighRate)

	// The references never hand a system back (RunSystem does not), and two
	// collections first empty anything earlier tests left for reuse, so each
	// is computed on newly built state.
	runtime.GC()
	runtime.GC()
	want := make(map[Cell]metrics.Summary, len(cells))
	for _, c := range cells {
		r := NewRunner()
		r.JobCount = jobs
		sys, _, err := r.RunSystem(context.Background(), c.Sched, c.Bench, c.Rate)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = metrics.Summarize(sys, c.Sched, c.Bench, c.Rate.String())
	}

	n := len(cells)
	interleaved := make([]Cell, 0, n)
	for i, j := 0, n-1; i <= j; i, j = i+1, j-1 {
		interleaved = append(interleaved, cells[i])
		if i != j {
			interleaved = append(interleaved, cells[j])
		}
	}
	reversed := slices.Clone(cells)
	slices.Reverse(reversed)
	orders := map[string][]Cell{"forward": cells, "reversed": reversed, "interleaved": interleaved}
	for _, width := range []int{1, 4} {
		for _, name := range []string{"forward", "reversed", "interleaved"} {
			t.Run(fmt.Sprintf("%s/width=%d", name, width), func(t *testing.T) {
				order := orders[name]
				r := NewRunner()
				r.JobCount = jobs
				r.Workers = width
				const chunks = 4
				for k := 0; k < chunks; k++ {
					chunk := order[k*n/chunks : (k+1)*n/chunks]
					if err := r.Sweep(context.Background(), chunk); err != nil {
						t.Fatal(err)
					}
					if k == chunks-1 {
						break
					}
					disturb(t, r, order[(k+1)*n/chunks])
				}
				for _, c := range order {
					got := r.MustRun(c.Sched, c.Bench, c.Rate)
					if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want[c]); g != w {
						t.Errorf("%s/%s:\n got %s\nwant %s", c.Sched, c.Bench, g, w)
					}
				}
			})
		}
	}
}

// disturb runs, in r's process, the kinds of simulation a sweep cell can
// follow besides a cell of its own grid: a faulted cell with recovery armed
// (its run stops at the fault horizon), an observed RunSystem cell, cells of
// a smaller and a larger trace, and a one-cell sweep of next cancelled
// mid-simulation (so next is evicted and simulated again by a later chunk).
func disturb(t *testing.T, r *Runner, next Cell) {
	t.Helper()
	faulted := r.variant(r.Seed, "hang=0.1,abort=0.1,recover=on")
	if _, err := faulted.Run("LAX", "LSTM", workload.HighRate); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.RunSystem(context.Background(), "EDF", "GRU", workload.HighRate, obs.NewMetrics()); err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{r.JobCount / 2, 2 * r.JobCount} {
		other := r.variant(r.Seed, "")
		other.JobCount = jobs
		if _, err := other.Run("LAX-SW", "VAN", workload.HighRate); err != nil {
			t.Fatal(err)
		}
	}
	// A one-cell sweep runs on the calling goroutine with ctx itself, so the
	// countdown reaches the simulation's own polls: the pool's, the one before
	// the first event, and then one per 64 events — the third, at event 64,
	// cancels (the smallest grid cell fires ~96 at 32 jobs).
	if err := r.Sweep(newCancelAfter(2), []Cell{next}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep of %v: err = %v, want context.Canceled", next, err)
	}
}
