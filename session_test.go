package laxgpu

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"laxgpu/internal/harness"
)

// mustRunner is runnerFor for tests on open sessions, where an error is a
// test bug rather than an expected outcome.
func mustRunner(t *testing.T, s *Session, k runnerKey) *harness.Runner {
	t.Helper()
	r, err := s.runnerFor(k)
	if err != nil {
		t.Fatalf("runnerFor(%+v): %v", k, err)
	}
	return r
}

// sweepGrid is a small mixed grid reused by the Session tests: three
// schedulers, two benchmarks, one duplicate cell at the end.
func sweepGrid() []Options {
	var opts []Options
	for _, s := range []string{"RR", "SJF", "LAX"} {
		for _, b := range []string{"IPV6", "LSTM"} {
			opts = append(opts, Options{Scheduler: s, Benchmark: b, Rate: "medium", Jobs: 24})
		}
	}
	return append(opts, opts[0])
}

// TestSessionSweepMatchesRun: Sweep returns results in input order and each
// one is identical to what a serial Run of that cell produces.
func TestSessionSweepMatchesRun(t *testing.T) {
	opts := sweepGrid()
	serial := NewSession(SessionOptions{Parallel: 1})
	want := make([]Result, len(opts))
	for i, o := range opts {
		var err error
		if want[i], err = serial.Run(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}

	s := NewSession(SessionOptions{Parallel: 4})
	got, err := s.Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel sweep diverged from serial runs:\n got %+v\nwant %+v", got, want)
	}
}

// TestSessionSweepValidation: a bad cell is rejected up front, before any
// simulation, with the cell index in the error.
func TestSessionSweepValidation(t *testing.T) {
	s := NewSession(SessionOptions{})
	_, err := s.Sweep([]Options{
		{Scheduler: "LAX", Benchmark: "IPV6", Jobs: 8},
		{Scheduler: "NOPE", Benchmark: "IPV6", Jobs: 8},
	})
	if err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Fatalf("err = %v, want a cell-1 validation error", err)
	}
}

// TestSessionConcurrentHammer drives one Session from many goroutines mixing
// Run and Sweep over overlapping cells (run under -race). Every caller must
// see the same results the serial reference produces.
func TestSessionConcurrentHammer(t *testing.T) {
	opts := sweepGrid()
	ref := NewSession(SessionOptions{Parallel: 1})
	want := make([]Result, len(opts))
	for i, o := range opts {
		var err error
		if want[i], err = ref.Run(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}

	s := NewSession(SessionOptions{Parallel: 2})
	const goroutines = 12
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				got, err := s.Sweep(opts)
				if err == nil && !reflect.DeepEqual(got, want) {
					err = errors.New("sweep result diverged under contention")
				}
				errs <- err
				return
			}
			// Odd goroutines hit individual overlapping cells.
			for i := range opts {
				got, err := s.Run(context.Background(), opts[(g+i)%len(opts)])
				if err != nil {
					errs <- err
					return
				}
				if got != want[(g+i)%len(opts)] {
					errs <- errors.New("run result diverged under contention")
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionSweepCancellation: a cancelled context surfaces as the sweep
// error, workers drain without leaking goroutines, and the session stays
// usable afterwards.
func TestSessionSweepCancellation(t *testing.T) {
	s := NewSession(SessionOptions{Parallel: 4})
	opts := sweepGrid()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SweepContext(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked after cancelled sweep: %d -> %d", before, after)
	}
	// Aborted cells were not cached: the same sweep now completes.
	if _, err := s.Sweep(opts); err != nil {
		t.Fatal(err)
	}
}

// TestSessionExperimentCancellation: a cancelled experiment returns the
// context error and writes nothing to w.
func TestSessionExperimentCancellation(t *testing.T) {
	s := NewSession(SessionOptions{Parallel: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := s.ExperimentContext(ctx, "table5", &buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("cancelled experiment wrote %d bytes", buf.Len())
	}
}

// TestSessionRunContextCancellation: cancelling mid-run returns the context
// error; the same cell then completes with a live context because the
// aborted run never entered the cache.
func TestSessionRunContextCancellation(t *testing.T) {
	s := NewSession(SessionOptions{})
	o := Options{Scheduler: "LAX", Benchmark: "LSTM", Rate: "high", Jobs: 64}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := s.Run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
}

// TestSessionsAreIsolated: distinct sessions hold distinct memos.
func TestSessionsAreIsolated(t *testing.T) {
	a := NewSession(SessionOptions{})
	b := NewSession(SessionOptions{})
	k := runnerKey{jobs: 8, seed: 1}
	if mustRunner(t, a, k) == mustRunner(t, b, k) {
		t.Fatal("two sessions shared a runner")
	}
	if mustRunner(t, a, k) != mustRunner(t, a, k) {
		t.Fatal("session memo not stable")
	}
}

// TestRunVerifiedMatchesRun: the checker is a pure observer, so a verified
// run returns exactly Run's result — on healthy and fault-injected cells —
// and verified runs are memoized under their own key.
func TestRunVerifiedMatchesRun(t *testing.T) {
	s := NewSession(SessionOptions{})
	for _, o := range []Options{
		{Scheduler: "LAX", Benchmark: "CUCKOO", Rate: "high", Jobs: 16},
		{Scheduler: "EDF", Benchmark: "LSTM", Rate: "medium", Jobs: 16},
		{Scheduler: "RR", Benchmark: "CUCKOO", Rate: "high", Jobs: 16,
			Faults: "hang=0.05,abort=0.05,recover=on"},
	} {
		plain, err := s.Run(context.Background(), o)
		if err != nil {
			t.Fatalf("Run(%+v): %v", o, err)
		}
		o.Verify = true
		checked, err := s.Run(context.Background(), o)
		if err != nil {
			t.Fatalf("Run(%+v): %v", o, err)
		}
		if plain != checked {
			t.Fatalf("verified result diverged:\n  plain   %+v\n  checked %+v", plain, checked)
		}
	}
	key := runnerKey{jobs: 16, seed: 1}
	if mustRunner(t, s, key) == mustRunner(t, s, runnerKey{jobs: 16, seed: 1, verify: true}) {
		t.Fatal("verified and unverified cells share a runner")
	}
}

// TestSessionClose: a closed session refuses every entry point with
// ErrSessionClosed, Close is idempotent, and it satisfies io.Closer.
func TestSessionClose(t *testing.T) {
	s := NewSession(SessionOptions{})
	o := Options{Scheduler: "LAX", Benchmark: "IPV6", Rate: "medium", Jobs: 8}
	if _, err := s.Run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	var c io.Closer = s
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if n := s.configCount(); n != 0 {
		t.Fatalf("closed session still memoizes %d runners", n)
	}
	if _, err := s.Run(context.Background(), o); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrSessionClosed", err)
	}
	for name, closed := range map[string]Options{
		"verified": {Scheduler: "LAX", Benchmark: "IPV6", Verify: true},
		"probed":   {Scheduler: "LAX", Benchmark: "IPV6", Probe: true},
		"trace":    {Scheduler: "LAX", Trace: strings.NewReader(traceCSV)},
		"scenario": {Scheduler: "LAX", Scenario: strings.NewReader(apiScenarioJSON)},
	} {
		if _, err := s.Run(context.Background(), closed); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%s Run after Close: err = %v, want ErrSessionClosed", name, err)
		}
	}
	if _, err := s.Sweep([]Options{o}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Sweep after Close: err = %v, want ErrSessionClosed", err)
	}
	if err := s.Experiment("figure3", io.Discard); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Experiment after Close: err = %v, want ErrSessionClosed", err)
	}
}
