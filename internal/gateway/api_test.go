package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// startLaxd runs a serve.Server behind httptest — a real laxd node as a
// RemoteBackend sees it.
func startLaxd(t *testing.T, opts serve.Options) *httptest.Server {
	t.Helper()
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	})
	return hs
}

// TestSubmitDeadlineBounds posts deadline_us at and around the overflow
// bound to both daemons' POST /v1/jobs: the largest deadline whose µs→ns
// conversion and 16× critical-class tolerance both fit in sim.Time is taken,
// one more is a 400, and a negative value still means "the benchmark's own".
func TestSubmitDeadlineBounds(t *testing.T) {
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBackend{name: "node0", h: Headroom{Capacity: 1}, verdict: Verdict{Accepted: true}}
	gw, err := New(Options{Backends: []Backend{fb}, Clock: serve.NewManualClock(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.TickProbes(0)
	laxgw := httptest.NewServer(gw.Handler())
	defer laxgw.Close()
	laxd := startLaxd(t, serve.Options{Speed: 100, DrainGrace: 50 * time.Millisecond})

	for _, daemon := range []struct{ name, url string }{{"laxd", laxd.URL}, {"laxgw", laxgw.URL}} {
		for _, tc := range []struct {
			name       string
			deadlineUs int64
			wantCode   int
			wantUs     int64
		}{
			{"boundary", serve.MaxDeadlineUs, http.StatusAccepted, serve.MaxDeadlineUs},
			{"boundary+1", serve.MaxDeadlineUs + 1, http.StatusBadRequest, 0},
			{"max int64", 1<<63 - 1, http.StatusBadRequest, 0},
			{"negative", -5, http.StatusAccepted, int64(bench.Deadline / 1000)},
		} {
			t.Run(daemon.name+"/"+tc.name, func(t *testing.T) {
				body := fmt.Sprintf(`{"benchmark":"LSTM","deadline_us":%d,"criticality":"critical"}`, tc.deadlineUs)
				resp, err := http.Post(daemon.url+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var st struct {
					DeadlineUs int64 `json:"deadline_us"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.wantCode || st.DeadlineUs != tc.wantUs {
					t.Errorf("status %d deadline_us %d, want %d and %d", resp.StatusCode, st.DeadlineUs, tc.wantCode, tc.wantUs)
				}
			})
		}
	}
}

// tracingBackend is a fakeBackend whose nodes record traces: it counts the
// trace fetches the gateway makes.
type tracingBackend struct {
	fakeBackend
	fetches int
}

func (b *tracingBackend) JobTrace(int64, string) (obs.WireTrace, bool) {
	b.fetches++
	return obs.WireTrace{}, true
}

// TestTraceListingFanOutIsCapped checks GET /v1/traces?n= cannot be turned
// into an unbounded burst of backend trace fetches: n is clamped to the
// default trace-ring depth.
func TestTraceListingFanOutIsCapped(t *testing.T) {
	tb := &tracingBackend{fakeBackend: fakeBackend{name: "node0", h: Headroom{Capacity: 1}, verdict: Verdict{Accepted: true}}}
	gw, err := New(Options{Backends: []Backend{tb}, Clock: serve.NewManualClock(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.TickProbes(0)
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, _, reason := gw.Submit(bench, sim.Second, Standard); reason != "" {
			t.Fatalf("submission %d refused: %s", i, reason)
		}
	}
	for _, done := range tb.dones {
		done(Outcome{Terminal: verify.FleetDone, Met: true})
	}

	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/traces?n=65536", nil))
	var docs []obs.TraceDoc
	if err := json.NewDecoder(rec.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(docs) != 256 || tb.fetches != 256 {
		t.Fatalf("status %d, %d traces, %d backend fetches for n=65536 over 300 terminal jobs; want 200, 256, 256",
			rec.Code, len(docs), tb.fetches)
	}
}

// TestGatewayRemoteCapacityFracTracksCURetirement is the remote twin of the
// in-process test: a laxd node whose device loses CUs reports the surviving
// fraction on /v1/headroom, and the gateway's load view follows it.
func TestGatewayRemoteCapacityFracTracksCURetirement(t *testing.T) {
	// 0.05× speed puts the 50ms (simulated) retirement one wall second out:
	// the first probe lands well before it.
	laxd := startLaxd(t, serve.Options{Speed: 0.05, Faults: []string{"retire=4@50ms"}, DrainGrace: 50 * time.Millisecond})
	rb := NewRemoteBackend("node0", laxd.URL, nil)
	defer rb.Close()
	clock := serve.NewManualClock()
	gw, err := New(Options{Backends: []Backend{rb}, Clock: clock, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.TickProbes(0)
	if frac := gw.Loads()[0].CapacityFrac; frac != 1 {
		t.Fatalf("CapacityFrac = %g before the retirement instant, want exactly 1", frac)
	}
	h, err := rb.Probe(0)
	if err != nil || h.CapacityFrac != 1 {
		t.Fatalf("probe before retirement: %+v, %v; want a reported fraction of 1", h, err)
	}
	for deadline := time.Now().Add(20 * time.Second); gw.Loads()[0].CapacityFrac == 1; {
		if time.Now().After(deadline) {
			t.Fatal("CapacityFrac still 1 long after the retirement instant")
		}
		time.Sleep(50 * time.Millisecond)
		gw.TickProbes(0)
	}
	if frac := gw.Loads()[0].CapacityFrac; frac <= 0 || frac >= 1 {
		t.Fatalf("CapacityFrac = %g after retiring CUs, want in (0, 1)", frac)
	}
}
