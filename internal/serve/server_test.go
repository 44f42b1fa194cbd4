package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// startServer builds, starts and registers cleanup for a Server plus an HTTP
// test frontend.
func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
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
	return srv, hs
}

func postJob(t *testing.T, url, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode < 500 && json.Unmarshal(raw, &st) != nil && resp.StatusCode < 400 {
		t.Fatalf("unparseable body %q (status %d)", raw, resp.StatusCode)
	}
	return resp, st
}

func TestSubmitWaitLifecycle(t *testing.T) {
	srv, hs := startServer(t, Options{Speed: 1})
	// A 1-second deadline override keeps the outcome robust to wall-clock
	// jitter: the job completes well inside it even on a loaded CI machine.
	resp, st := postJob(t, hs.URL+"/v1/jobs?wait=1", `{"benchmark":"LSTM","deadline_us":1000000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if !st.Admitted || st.State != "done" {
		t.Fatalf("status = %+v, want admitted and done", st)
	}
	if !st.MetDeadline {
		t.Errorf("job missed a 1s deadline: %+v", st)
	}
	if st.LatencyUs <= 0 {
		t.Errorf("latency_us = %d, want > 0", st.LatencyUs)
	}
	if st.FellBack {
		t.Error("healthy run should not use the CPU fallback")
	}

	// The record stays queryable.
	r2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", hs.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("GET job: status %d", r2.StatusCode)
	}
	var again JobStatus
	if err := json.NewDecoder(r2.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	if again.State != "done" || again.ID != st.ID {
		t.Errorf("lookup = %+v", again)
	}
	if got := srv.cCompleted.Value(); got != 1 {
		t.Errorf("completed counter = %d, want 1", got)
	}
}

func TestSubmitImpossibleDeadlineRejected(t *testing.T) {
	srv, hs := startServer(t, Options{Speed: 1})
	// Warm the profiling table first: a cold table estimates zero hold time
	// and Algorithm 1 admits everything (the paper's cold-start behaviour).
	if r, _ := postJob(t, hs.URL+"/v1/jobs?wait=1", `{"benchmark":"STEM","deadline_us":1000000}`); r.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d", r.StatusCode)
	}
	// With rates measured, a 1µs deadline is far below STEM's hold-time
	// estimate, so Algorithm 1 must reject even on an idle device.
	resp, st := postJob(t, hs.URL+"/v1/jobs", `{"benchmark":"STEM","deadline_us":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if st.State != "rejected" || st.Admitted {
		t.Fatalf("status = %+v, want rejected", st)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rejection lacks Retry-After")
	}
	if got := srv.cRejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	if got := srv.gInflight.Value(); got != 0 {
		t.Errorf("inflight gauge = %v after rejection, want 0", got)
	}
}

func TestBurstOverloadRejectsOverHTTP(t *testing.T) {
	// A near-frozen clock makes the burst deterministic: simulated time
	// barely advances while the burst lands, so admitted jobs pile up and
	// Algorithm 1 starts rejecting once the predicted queue delay exceeds
	// STEM's 300µs deadline.
	srv, hs := startServer(t, Options{Speed: 0.001, MaxPerClient: 1024, DrainGrace: 50 * time.Millisecond})
	admitted, rejected := 0, 0
	for i := 0; i < 24; i++ {
		resp, st := postJob(t, hs.URL+"/v1/jobs", `{"benchmark":"STEM"}`)
		switch resp.StatusCode {
		case http.StatusAccepted:
			admitted++
		case http.StatusTooManyRequests:
			rejected++
			if st.RetryAfterUs <= 0 {
				t.Errorf("rejection %d without retry_after_us: %+v", i, st)
			}
		default:
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	if admitted == 0 {
		t.Error("burst saw no admissions")
	}
	if rejected == 0 {
		t.Error("burst at 24x queue depth saw no rejections")
	}
	if got := int(srv.cSubmitted.Value()); got != admitted+rejected {
		t.Errorf("submitted counter = %d, want %d", got, admitted+rejected)
	}

	// /metrics exposes the same counters in Prometheus text format.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"laxd_jobs_submitted_total 24", "laxd_jobs_rejected_total"} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestPerClientLimit(t *testing.T) {
	srv, hs := startServer(t, Options{Speed: 0.0001, MaxPerClient: 2, DrainGrace: 50 * time.Millisecond})
	for i := 0; i < 2; i++ {
		resp, _ := postJob(t, hs.URL+"/v1/jobs", `{"benchmark":"LSTM"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("warmup submission %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(`{"benchmark":"LSTM"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	var e struct {
		Error        string `json:"error"`
		Reason       string `json:"reason"`
		RetryAfterUs int64  `json:"retry_after_us"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "in-flight") {
		t.Errorf("error = %q, want the per-client message", e.Error)
	}
	// Satellite invariant: every reject is machine-retryable — reason,
	// retry_after_us and the Retry-After header all present.
	if e.Reason != ReasonClientLimit {
		t.Errorf("reason = %q, want %q", e.Reason, ReasonClientLimit)
	}
	if e.RetryAfterUs <= 0 {
		t.Errorf("retry_after_us = %d, want > 0", e.RetryAfterUs)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("per-client 429 lacks Retry-After header")
	}
	if got := srv.cLimited.Value(); got != 1 {
		t.Errorf("limited counter = %d, want 1", got)
	}
}

func TestGracefulDrainAccountsEveryJob(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := New(Options{Speed: 0.0005, DrainGrace: 30 * time.Millisecond, MaxPerClient: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())

	const n = 8
	ids := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		resp, st := postJob(t, hs.URL+"/v1/jobs", `{"benchmark":"LSTM"}`)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Submissions during a drain are refused outright.
	resp, _ := postJob(t, hs.URL+"/v1/jobs", `{"benchmark":"STEM"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}

	// Every submitted job reached a terminal state and is still queryable.
	terminal := map[string]int{}
	for _, id := range ids {
		st, ok := srv.records.get(id)
		if !ok {
			t.Fatalf("job %d record evicted", id)
		}
		switch st.State {
		case "done", "rejected", "cancelled":
			terminal[st.State]++
		default:
			t.Errorf("job %d left in state %q after drain", id, st.State)
		}
	}

	admitted, rejected := srv.cAdmitted.Value(), srv.cRejected.Value()
	completed, cancelled := srv.cCompleted.Value(), srv.cCancelled.Value()
	if admitted+rejected != n {
		t.Errorf("admitted %d + rejected %d != submitted %d", admitted, rejected, n)
	}
	if completed+cancelled != admitted {
		t.Errorf("completed %d + cancelled %d != admitted %d", completed, cancelled, admitted)
	}
	if srv.cFellBack.Value() == 0 {
		t.Error("forced drain should have completed jobs on the CPU fallback path")
	}
	if got := srv.gInflight.Value(); got != 0 {
		t.Errorf("inflight gauge = %v after drain, want 0", got)
	}

	hs.Close()
	http.DefaultClient.CloseIdleConnections()

	// Goroutine accounting: the pacing loops and HTTP workers must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after drain", before, after)
	}
}

func TestEventStream(t *testing.T) {
	_, hs := startServer(t, Options{Speed: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev struct {
				Event string `json:"event"`
			}
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				events <- ev.Event
			}
		}
		close(events)
	}()

	// The subscription is live once the response headers arrived, so this
	// job's whole lifecycle must appear on the stream.
	if r, _ := postJob(t, hs.URL+"/v1/jobs", `{"benchmark":"LSTM","deadline_us":1000000}`); r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", r.StatusCode)
	}
	seen := map[string]bool{}
	for !(seen["admitted"] && seen["done"]) {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed early; saw %v", seen)
			}
			seen[ev] = true
		case <-ctx.Done():
			t.Fatalf("timed out; saw %v", seen)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := startServer(t, Options{Speed: 1})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown benchmark", `{"benchmark":"NOPE"}`},
		{"unknown kernel", `{"benchmark":"STEM","kernels":[{"kernel":"NoSuchKernel","count":1}]}`},
		{"oversized override", `{"benchmark":"STEM","kernels":[{"kernel":"STEMKernel","count":99999}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postJob(t, hs.URL+"/v1/jobs", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	r, err := http.Get(hs.URL + "/v1/jobs/12345")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
	r, err = http.Get(hs.URL + "/v1/jobs/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed id: status %d, want 400", r.StatusCode)
	}
}

func TestKernelOverrideRuns(t *testing.T) {
	_, hs := startServer(t, Options{Speed: 1})
	body := `{"benchmark":"STEM","deadline_us":1000000,"kernels":[{"kernel":"STEMKernel","count":3}]}`
	resp, st := postJob(t, hs.URL+"/v1/jobs?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if st.State != "done" || !st.Admitted {
		t.Fatalf("status = %+v", st)
	}
}

func TestBenchmarksAndHealthz(t *testing.T) {
	_, hs := startServer(t, Options{Speed: 1, Scheduler: "LAX"})
	resp, err := http.Get(hs.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []benchmarkInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 8 {
		t.Fatalf("got %d benchmarks, want the paper's 8", len(infos))
	}
	for _, bi := range infos {
		if bi.CapacityJobsPerSec <= 0 {
			t.Errorf("%s: capacity %v, want > 0", bi.Name, bi.CapacityJobsPerSec)
		}
		if bi.DeadlineUs <= 0 || len(bi.RatesPerSec) != 3 {
			t.Errorf("%s: incomplete info %+v", bi.Name, bi)
		}
	}

	r2, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var h struct {
		Status    string `json:"status"`
		Scheduler string `json:"scheduler"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Scheduler != "LAX" {
		t.Errorf("healthz = %+v", h)
	}
}

func TestHeadroomEndpoint(t *testing.T) {
	// A glacial clock keeps submitted work unfinished, so headroom must
	// report the backlog a prober would see.
	_, hs := startServer(t, Options{Speed: 0.0001, MaxPerClient: 64, DrainGrace: 50 * time.Millisecond})
	resp, err := http.Get(hs.URL + "/v1/headroom")
	if err != nil {
		t.Fatal(err)
	}
	var before HeadroomStatus
	if err := json.NewDecoder(resp.Body).Decode(&before); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if before.Unfinished != 0 || before.Draining {
		t.Fatalf("idle headroom = %+v", before)
	}

	// Escalating deadlines keep Algorithm 1 admitting on a cold profiling
	// table, where each queued job's hold-time estimate is its own deadline.
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"benchmark":"LSTM","deadline_us":%d}`, (i+1)*60000000)
		if resp, _ := postJob(t, hs.URL+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err = http.Get(hs.URL + "/v1/headroom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var after HeadroomStatus
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.Unfinished != 3 {
		t.Errorf("unfinished = %d, want 3", after.Unfinished)
	}
	if after.DrainUs <= 0 {
		t.Errorf("drain_us = %d, want > 0 with a backlog", after.DrainUs)
	}
	if after.Scheduler != "LAX" {
		t.Errorf("scheduler = %q, want LAX", after.Scheduler)
	}
}

func TestManualClockDrivesDriverDeterministically(t *testing.T) {
	clock := NewManualClock()
	node, err := NewNode(NodeConfig{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(node, clock, 16)
	d.Start()
	defer d.Shutdown(time.Second)

	nowAt := func() (at sim.Time) {
		if !d.Call(func() { at = node.Now() }) {
			t.Fatal("driver call failed")
		}
		return at
	}
	if got := nowAt(); got != 0 {
		t.Fatalf("node time = %v before the clock moved", got)
	}
	clock.Set(5 * sim.Millisecond)
	if got := nowAt(); got == 0 {
		t.Fatal("node did not advance after ManualClock.Set")
	}
	clock.Set(1000) // earlier instant: must be ignored
	after := nowAt()
	clock.Advance(0)
	if got := nowAt(); got != after {
		t.Fatalf("time moved backwards: %v -> %v", after, got)
	}
}

func TestTraceListingSize(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  int // 0 = HTTP 400
	}{
		{"", 20}, {"?n=5", 5}, {"?n=256", 256}, {"?n=257", 256}, {"?n=65536", 256},
		{"?n=0", 0}, {"?n=-3", 0}, {"?n=many", 0},
	} {
		rec := httptest.NewRecorder()
		n, ok := TraceListingSize(rec, httptest.NewRequest("GET", "/v1/traces"+tc.query, nil))
		if ok != (tc.want > 0) || n != tc.want || (!ok && rec.Code != http.StatusBadRequest) {
			t.Errorf("%q: n=%d ok=%v status=%d, want n=%d", tc.query, n, ok, rec.Code, tc.want)
		}
	}
}

// TestDoneFollowsCounters: a ?wait=1 answer means the job's outcome is
// already counted. The record's done channel closes only after the
// completion counters and the in-flight gauge have moved, so a waiter woken
// by it — the HTTP wait, a /metrics read right after — never sees the job
// as still running. The completions are driven directly, back to back, so a
// waiter that wakes early has a window to see stale counters in.
func TestDoneFollowsCounters(t *testing.T) {
	srv, _ := startServer(t, Options{})
	const n = 2000
	waits := make([]<-chan struct{}, n)
	for i := range waits {
		srv.records.add(int64(i), "LSTM", 0, obs.TraceID{}, "c")
		waits[i] = srv.records.done(int64(i))
	}
	srv.mu.Lock()
	srv.perClient["c"], srv.inflight = n, n
	srv.mu.Unlock()
	finished := make(chan struct{})
	defer func() { <-finished }()
	go func() {
		defer close(finished)
		for i := range waits {
			srv.completeJob(int64(i), &cp.JobRun{}, obs.JobEvent{Kind: obs.JobFinish, Met: true})
		}
	}()
	for i, done := range waits {
		<-done
		done := int64(i + 1)
		if c, m, in := srv.cCompleted.Value(), srv.cMet.Value(), srv.gInflight.Value(); c < done || m < done || in > float64(n-done) {
			t.Fatalf("job %d done: completed %d, met %d, inflight %g", i, c, m, in)
		}
	}
}
