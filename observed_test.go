package laxgpu

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"laxgpu/examples/scenarios"
)

// observedOptions is an observed run of the committed steady scenario under
// LAX with every observer on, writing its documents into the buffers.
func observedOptions(t testing.TB, metrics, perfetto *bytes.Buffer) Options {
	t.Helper()
	raw, err := scenarios.FS.ReadFile("steady.json")
	if err != nil {
		t.Fatal(err)
	}
	return Options{Scheduler: "LAX", Scenario: bytes.NewReader(raw), Seed: 1,
		Verify: true, Probe: true, Metrics: metrics, Perfetto: perfetto}
}

// TestObservedRunBytesPerJob is the allocation guard on an observed run:
// the second Session.Run of the committed three-tenant scenario under LAX
// with Verify, Probe, Metrics and Perfetto on, writing both documents to
// io.Discard so that no caller buffer is counted, may allocate at most
// 120 B a job (runtime.MemStats). The run is built in what the first run
// handed back. It measured ~52 on a 2-vCPU x86-64 box, ~402 before the job
// set, checker ledger, job table and RNGs were recycled; the bound leaves
// room for a collection mid-measure that sends some pooled buffers to the
// collector.
func TestObservedRunBytesPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a random quarter of what is put in it")
	}
	// One P: a sync.Pool keeps a Put in the putting P's private slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	raw, err := scenarios.FS.ReadFile("three-tenant.json")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionOptions{Parallel: 1})
	run := func() Result {
		t.Helper()
		res, err := s.Run(context.Background(), Options{Scheduler: "LAX", Scenario: bytes.NewReader(raw), Seed: 1,
			Verify: true, Probe: true, Metrics: io.Discard, Perfetto: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run()
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.TotalJobs)
	if perJob > 120 {
		t.Fatalf("observed LAX/three-tenant run allocated %.0f B/job, want <= 120", perJob)
	}
	t.Logf("observed LAX/three-tenant run: %.0f B/job over %d jobs", perJob, res.TotalJobs)
}

// observedDocs is what one observed run hands back.
type observedDocs struct {
	res               Result
	metrics, perfetto string
}

// TestObservedRunsAndSweepsInterleave runs observed Session.Runs, whose
// systems and Perfetto rows go back to their pools, and Sweeps, whose cells
// do the same, on goroutines over one session (run under -race). Every
// Result and every metrics and Perfetto document must equal the serial
// run's: a recycled system or chunk must never be one a live run still
// holds.
func TestObservedRunsAndSweepsInterleave(t *testing.T) {
	observed := func(i int) Options {
		var o Options
		switch i % 3 {
		case 0:
			o = observedOptions(t, nil, nil)
		case 1:
			o = Options{Scheduler: "EDF", Benchmark: "LSTM", Rate: "high", Jobs: 32, Verify: true}
		case 2:
			o = Options{Scheduler: "PREMA", Benchmark: "IPV6", Rate: "medium", Jobs: 32, Verify: true, Probe: true}
		}
		return o
	}
	const kinds = 3
	run := func(s *Session, i int) (observedDocs, error) {
		var metrics, perfetto bytes.Buffer
		o := observed(i)
		o.Metrics, o.Perfetto = &metrics, &perfetto
		res, err := s.Run(context.Background(), o)
		return observedDocs{res, metrics.String(), perfetto.String()}, err
	}
	grid := sweepGrid()

	ref := NewSession(SessionOptions{Parallel: 1})
	want := make([]observedDocs, kinds)
	for i := range want {
		var err error
		if want[i], err = run(ref, i); err != nil {
			t.Fatal(err)
		}
	}
	wantSweep, err := ref.Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(SessionOptions{Parallel: 2})
	const goroutines = 6
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * kinds {
				if g%2 == 1 && i == kinds {
					got, err := s.Sweep(grid)
					if err == nil && !reflect.DeepEqual(got, wantSweep) {
						err = errors.New("sweep diverged from the serial run")
					}
					if err != nil {
						errs <- err
						return
					}
				}
				k := (g + i) % kinds
				got, err := run(s, k)
				if err == nil && got != want[k] {
					err = fmt.Errorf("observed run %d diverged from the serial run", k)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
