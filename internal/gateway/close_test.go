package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
)

// glacialFleet builds two in-process LAX nodes through NewFleet on a wall
// clock slow enough (1 simulated µs per 10 wall ms) that no job can finish
// inside a drain grace of tens of milliseconds, and gives them six admitted
// jobs still in flight.
func glacialFleet(t *testing.T) (*Gateway, []int64) {
	t.Helper()
	clock := serve.NewWallClock(0.0001)
	gw, err := NewFleet(2, "", InprocConfig{Node: serve.NodeConfig{Scheduler: "LAX"}}, "", Options{
		Clock: clock,
		Seed:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close(context.Background(), 0) })
	gw.TickProbes(clock.Now())
	ids := submitN(t, gw, 6, sim.Second)
	if n := gw.Inflight(); n != len(ids) {
		t.Fatalf("%d of %d jobs in flight before the drain; the test wants them all running", n, len(ids))
	}
	return gw, ids
}

// TestGatewayCloseDrainGrace pins Gateway.Close's drain: once the grace
// expires every in-process node forces its unfinished jobs onto the CPU
// fallback path, so the journal closes with every job terminal and nothing
// lost, and the gateway refuses new work. A context that expires first
// returns its error without stopping the drain.
func TestGatewayCloseDrainGrace(t *testing.T) {
	t.Run("grace-expires", func(t *testing.T) {
		gw, ids := glacialFleet(t)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := gw.Close(ctx, 50*time.Millisecond); err != nil {
			t.Fatalf("Close = %v, want nil", err)
		}
		if err := gw.Close(ctx, 0); err != nil {
			t.Fatalf("second Close = %v, want nil (Close is idempotent)", err)
		}
		if n := gw.Inflight(); n != 0 {
			t.Fatalf("%d jobs in flight after the drain", n)
		}
		for _, j := range gw.FleetJobs() {
			if j.Terminal == "" {
				t.Errorf("job %d is not terminal after the drain", j.ID)
			}
		}
		for _, id := range ids {
			st, _ := gw.Status(id)
			if st.State != "done" || !st.FellBack {
				t.Errorf("job %d = %+v, want a CPU-fallback terminal (forced off the GPU)", id, st)
			}
		}
		if vs := gw.Check(gw.Clock().Now()); len(vs) != 0 {
			t.Fatalf("journal violations after the drain: %v", vs)
		}

		hs := httptest.NewServer(gw.Handler())
		defer hs.Close()
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(`{"benchmark":"LSTM"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Reason string `json:"reason"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || body.Reason != serve.ReasonDrain {
			t.Fatalf("POST after the drain: status %d, reason %q; want 503 %q", resp.StatusCode, body.Reason, serve.ReasonDrain)
		}
	})

	t.Run("ctx-expires-first", func(t *testing.T) {
		gw, ids := glacialFleet(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := gw.Close(ctx, 500*time.Millisecond); !errors.Is(err, context.Canceled) {
			t.Fatalf("Close = %v, want %v", err, context.Canceled)
		}
		if n := gw.Inflight(); n != len(ids) {
			t.Fatalf("%d of %d jobs in flight when Close returned; it waited for the drain instead of the context", n, len(ids))
		}
		// The nodes drain on without the caller: past the grace they force
		// their jobs off the GPU and stop.
		for _, ib := range gw.owned.inproc {
			select {
			case <-ib.Driver().Done():
			case <-time.After(20 * time.Second):
				t.Fatalf("%s never stopped after an abandoned Close", ib.Name())
			}
		}
		if n := gw.Inflight(); n != 0 {
			t.Fatalf("%d jobs in flight after the nodes stopped", n)
		}
		if vs := gw.Check(gw.Clock().Now()); len(vs) != 0 {
			t.Fatalf("journal violations after the drain: %v", vs)
		}
	})
}

// TestNewFleetFailureStopsItsNodes pins NewFleet's failure path: a recipe it
// rejects after building its nodes — more chaos specs than nodes, or a spec
// that does not parse — returns an error and leaves no node running.
func TestNewFleetFailureStopsItsNodes(t *testing.T) {
	for name, chaos := range map[string]string{
		"more-specs-than-nodes": "crash@1s;;;",
		"unparsable-spec":       ";crash@soon",
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			gw, err := NewFleet(2, "", InprocConfig{Node: serve.NodeConfig{Scheduler: "LAX"}}, chaos, Options{Clock: serve.NewWallClock(1)})
			if err == nil {
				gw.Close(context.Background(), 0)
				t.Fatalf("NewFleet with chaos %q succeeded, want an error", chaos)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the failed NewFleet (%v), %d before: a node is still running", runtime.NumGoroutine(), err, base)
				}
			}
		})
	}
}

// TestGrowRacesClose: a Grow racing Close either lands before Close takes its
// snapshot of the fleet, and is stopped with the rest, or is refused; no node
// a Grow built outlives Close.
func TestGrowRacesClose(t *testing.T) {
	gw, _ := fleet(t, 1, "", 1, 3)
	var wg sync.WaitGroup
	grew := make(chan struct{}, 2) // one send per grower, at its first node
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := gw.Grow(fmt.Sprintf("grown%d.%d", w, i)); err != nil {
					return
				}
				if i == 0 {
					grew <- struct{}{}
				}
			}
		}()
	}
	<-grew
	if err := gw.Close(context.Background(), time.Second); err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
	wg.Wait()
	for _, ib := range gw.owned.inproc {
		select {
		case <-ib.Driver().Done():
		default:
			t.Errorf("%s outlived Close", ib.Name())
		}
	}
}
