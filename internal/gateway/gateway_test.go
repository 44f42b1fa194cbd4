package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"laxgpu/internal/faults"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(2, 10*sim.Millisecond, 40*sim.Millisecond)
	if b.State() != BreakerClosed || !b.Allow(0) {
		t.Fatal("new breaker must be closed and probing")
	}
	if b.Failure(0) {
		t.Fatal("first failure below threshold must not trip")
	}
	if !b.Failure(sim.Millisecond) {
		t.Fatal("second consecutive failure must trip the breaker")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	// Backoff pacing: no probe before 1ms+10ms.
	if b.Allow(5 * sim.Millisecond) {
		t.Fatal("open breaker probed before the backoff elapsed")
	}
	if !b.Allow(11 * sim.Millisecond) {
		t.Fatal("open breaker must allow a trial after the backoff")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow(12 * sim.Millisecond) {
		t.Fatal("half-open breaker must not send a second trial")
	}
	// Failed trial: backoff doubles (20ms), then caps at 40ms.
	b.Failure(11 * sim.Millisecond)
	if b.Allow(20 * sim.Millisecond) {
		t.Fatal("probe before the doubled backoff")
	}
	if !b.Allow(31 * sim.Millisecond) {
		t.Fatal("no probe after the doubled backoff")
	}
	b.Failure(31 * sim.Millisecond)
	if !b.Allow(71*sim.Millisecond) || b.State() != BreakerHalfOpen {
		t.Fatal("no probe after the capped backoff")
	}
	b.Success(71 * sim.Millisecond)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after a successful trial, want closed", b.State())
	}
	// Recovery resets the consecutive-failure count.
	if b.Failure(72 * sim.Millisecond) {
		t.Fatal("single failure after recovery must not trip")
	}
}

// fakeBackend is a scripted Backend for shedding and routing-edge tests.
type fakeBackend struct {
	name      string
	h         Headroom
	probeErr  error
	submitErr error
	verdict   Verdict
	submitted []*Job
	dones     []func(Outcome)
}

func (f *fakeBackend) Name() string { return f.name }
func (f *fakeBackend) Probe(now sim.Time) (Headroom, error) {
	if f.probeErr != nil {
		return Headroom{}, f.probeErr
	}
	return f.h, nil
}
func (f *fakeBackend) Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	if f.submitErr != nil {
		return Verdict{}, f.submitErr
	}
	f.submitted = append(f.submitted, job)
	f.dones = append(f.dones, done)
	return f.verdict, nil
}

func TestGatewayShedsLowestCriticalityFirst(t *testing.T) {
	clock := serve.NewManualClock()
	fb := &fakeBackend{name: "node0", h: Headroom{Drain: 10 * sim.Second, Capacity: 1}, verdict: Verdict{Accepted: true}}
	gw, err := New(Options{Backends: []Backend{fb}, Clock: clock, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.TickProbes(0)
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}

	// 10s predicted drain vs a 1s deadline: best-effort (1x) and standard
	// (4x) shed; critical (16x) rides through to the node.
	if _, v, reason := gw.Submit(bench, sim.Second, BestEffort); reason != serve.ReasonShed {
		t.Fatalf("best-effort: reason %q, want shed", reason)
	} else if v.Retry != 10*sim.Second {
		t.Errorf("best-effort retry = %v, want the honest 10s drain", v.Retry)
	}
	if _, _, reason := gw.Submit(bench, sim.Second, Standard); reason != serve.ReasonShed {
		t.Fatalf("standard: reason %q, want shed", reason)
	}
	if _, _, reason := gw.Submit(bench, sim.Second, Critical); reason != "" {
		t.Fatalf("critical: reason %q, want accepted", reason)
	}
	if len(fb.submitted) != 1 {
		t.Fatalf("node saw %d submissions, want only the critical one", len(fb.submitted))
	}
	if got := gw.cShed[BestEffort].Value() + gw.cShed[Standard].Value(); got != 2 {
		t.Errorf("shed counters = %d, want 2", got)
	}
	// A standard job with a 10s deadline tolerates a 40s backlog: accepted.
	if _, _, reason := gw.Submit(bench, 10*sim.Second, Standard); reason != "" {
		t.Fatalf("standard/10s: reason %q, want accepted", reason)
	}
}

func TestGatewayNoHealthyBackend(t *testing.T) {
	clock := serve.NewManualClock()
	fb := &fakeBackend{name: "node0", probeErr: faults.ErrNodeDown}
	gw, err := New(Options{Backends: []Backend{fb}, Clock: clock, FailThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.TickProbes(0)
	bench, _ := workload.FindBenchmark("LSTM")
	_, v, reason := gw.Submit(bench, sim.Second, Standard)
	if reason != serve.ReasonUnhealthy {
		t.Fatalf("reason %q, want unhealthy", reason)
	}
	if v.Retry <= 0 {
		t.Error("unhealthy reject without a retry hint")
	}
	if vs := gw.Check(0); len(vs) != 0 {
		t.Errorf("journal violations for refused jobs: %v", vs)
	}
}

// TestNewRefusesMoreNodesThanARowIndexes: a journal row keeps its
// dispatch's routing index in 16 bits, so a fleet of more members is
// refused, not wrapped.
func TestNewRefusesMoreNodesThanARowIndexes(t *testing.T) {
	backends := make([]Backend, maxNodes+1)
	for i := range backends {
		backends[i] = instantStub{"stub"}
	}
	if _, err := New(Options{Backends: backends, Clock: serve.NewManualClock()}); err == nil {
		t.Fatalf("New took %d backends, want an error past %d", len(backends), maxNodes)
	}
}

// fleet builds an in-process LAX fleet on one shared ManualClock through
// NewFleet; chaos is the ';'-separated per-node spec list.
func fleet(t *testing.T, nodes int, chaos string, seed int64, failThreshold int) (*Gateway, *serve.ManualClock) {
	t.Helper()
	return templateFleet(t, nodes, serve.NodeConfig{Scheduler: "LAX"}, chaos, seed, failThreshold)
}

// templateFleet is fleet with a per-node template, for tests that grow the
// fleet or degrade its devices.
func templateFleet(t *testing.T, nodes int, node serve.NodeConfig, chaos string, seed int64, failThreshold int) (*Gateway, *serve.ManualClock) {
	t.Helper()
	clock := serve.NewManualClock()
	gw, err := NewFleet(nodes, "", InprocConfig{Node: node}, chaos, Options{
		Clock:         clock,
		Seed:          seed,
		FailThreshold: failThreshold,
		ProbeBackoff:  10 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close(context.Background(), time.Second) })
	return gw, clock
}

// submitN submits n benchmark jobs with per-job exponentially growing
// deadlines, which keeps cold-table admission (hold estimate = deadline)
// accepting no matter how the router spreads them. Fails the test on any
// reject.
func submitN(t *testing.T, gw *Gateway, n int, base sim.Time) []int64 {
	t.Helper()
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 0, n)
	deadline := base
	for i := 0; i < n; i++ {
		id, _, reason := gw.Submit(bench, deadline, Standard)
		if reason != "" {
			t.Fatalf("submission %d refused: %s", i, reason)
		}
		ids = append(ids, id)
		deadline *= 2
	}
	return ids
}

// crashScenario runs the acceptance scenario once: 12 jobs across 3 nodes,
// node1 crashes mid-backlog, probes detect it, failover re-dispatches, the
// run drains to quiescence. Returns the final journal and retired ledger.
func crashScenario(t *testing.T) ([]verify.FleetJob, []string) {
	t.Helper()
	gw, clock := fleet(t, 3, ";crash@5ms", 42, 1)
	gw.TickProbes(0)
	ids := submitN(t, gw, 12, sim.Second)

	// The crash instant passes; the next probe round must open node1's
	// breaker (FailThreshold 1: within one probe interval) and fail its
	// unfinished jobs over before TickProbes returns.
	clock.Set(6 * sim.Millisecond)
	gw.TickProbes(6 * sim.Millisecond)
	fs := gw.Fleet()
	if fs.Nodes[1].Breaker != "open" {
		t.Fatalf("node1 breaker = %s one probe after the crash, want open", fs.Nodes[1].Breaker)
	}
	if fs.Nodes[0].Breaker != "closed" || fs.Nodes[2].Breaker != "closed" {
		t.Fatalf("survivor breakers = %s/%s, want closed", fs.Nodes[0].Breaker, fs.Nodes[2].Breaker)
	}

	// Drain: drive the survivors far past every completion.
	clock.Set(10 * sim.Second)
	gw.TickProbes(10 * sim.Second)
	if n := gw.Inflight(); n != 0 {
		t.Fatalf("%d jobs still in flight after the drain", n)
	}
	for _, id := range ids {
		select {
		case <-gw.Done(id):
		default:
			t.Fatalf("job %d never reached a terminal state", id)
		}
	}
	if vs := gw.Check(10 * sim.Second); len(vs) != 0 {
		t.Fatalf("no-lost-jobs violations: %v", vs)
	}
	checkTerminalCount(t, &gw.journal)
	return gw.FleetJobs(), gw.DrainedNodes()
}

func TestGatewayCrashFailoverLossless(t *testing.T) {
	jobs, _ := crashScenario(t)
	redispatched := 0
	for _, j := range jobs {
		if !j.Accepted {
			t.Fatalf("job %d was refused; the scenario expects full acceptance", j.ID)
		}
		if len(j.Dispatches) > 1 {
			redispatched++
			if j.Dispatches[0] != "node1" {
				t.Errorf("job %d failed over from %s, want node1", j.ID, j.Dispatches[0])
			}
			last := j.Dispatches[len(j.Dispatches)-1]
			if last == "node1" {
				t.Errorf("job %d re-dispatched back to the dead node", j.ID)
			}
		}
	}
	if redispatched == 0 {
		t.Fatal("the crash stranded no jobs — the scenario lost its teeth")
	}
}

func TestGatewayCrashFailoverDeterministic(t *testing.T) {
	a, _ := crashScenario(t)
	b, _ := crashScenario(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reruns diverged:\n run A: %+v\n run B: %+v", a, b)
	}
}

// freezeScenario runs one job through a node that freezes and thaws: the job
// fails over, the thawed node delivers its copy late, and the journal dedups
// the second terminal. Returns the final journal and retired ledger.
func freezeScenario(t *testing.T) ([]verify.FleetJob, []string) {
	t.Helper()
	gw, clock := fleet(t, 2, "freeze@5ms+20ms", 7, 1)
	gw.TickProbes(0)
	bench, _ := workload.FindBenchmark("LSTM")
	id, _, reason := gw.Submit(bench, 60*sim.Second, Standard)
	if reason != "" {
		t.Fatalf("submission refused: %s", reason)
	}

	// Probe inside the freeze window: breaker opens, the job fails over to
	// node1 — but node0 still holds its copy.
	clock.Set(6 * sim.Millisecond)
	gw.TickProbes(6 * sim.Millisecond)
	if fs := gw.Fleet(); fs.Nodes[0].Breaker != "open" {
		t.Fatalf("node0 breaker = %s inside the freeze, want open", fs.Nodes[0].Breaker)
	}

	// Past the thaw and the backoff: the recovery probe closes the breaker,
	// node0 delivers its late completion (the first terminal), and node1's
	// copy lands as a deduplicated duplicate.
	clock.Set(100 * sim.Millisecond)
	gw.TickProbes(100 * sim.Millisecond)
	fs := gw.Fleet()
	if fs.Nodes[0].Breaker != "closed" {
		t.Fatalf("node0 breaker = %s after the thaw, want closed (recovery)", fs.Nodes[0].Breaker)
	}
	if fs.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want exactly the late copy", fs.Duplicates)
	}
	select {
	case <-gw.Done(id):
	default:
		t.Fatal("job never reached a terminal state")
	}
	st, _ := gw.Status(id)
	if st.State != "done" || !reflect.DeepEqual(st.Dispatches, []string{"node0", "node1"}) {
		t.Fatalf("status = %+v, want done via node0 then node1", st)
	}
	if vs := gw.Check(sim.Second); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	checkTerminalCount(t, &gw.journal)
	return gw.FleetJobs(), gw.DrainedNodes()
}

func TestGatewayFreezeDuplicateTerminalAndRecovery(t *testing.T) { freezeScenario(t) }

func TestGatewayHTTPAndMetrics(t *testing.T) {
	gw, clock := fleet(t, 2, "", 3, 3)
	gw.TickProbes(0)
	hs := httptest.NewServer(gw.Handler())
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"LSTM","deadline_us":60000000,"criticality":"critical"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.State != "admitted" || st.Class != "critical" {
		t.Fatalf("status %d, body %+v", resp.StatusCode, st)
	}

	clock.Set(sim.Second)
	gw.TickProbes(sim.Second)

	r2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", hs.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	var done JobStatus
	json.NewDecoder(r2.Body).Decode(&done)
	r2.Body.Close()
	if done.State != "done" || done.Node != "node0" {
		t.Fatalf("final status = %+v", done)
	}

	r3, err := http.Get(hs.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fs FleetStatus
	json.NewDecoder(r3.Body).Decode(&fs)
	r3.Body.Close()
	if fs.Violations != 0 || fs.Terminal != 1 || len(fs.Nodes) != 2 {
		t.Fatalf("fleet = %+v", fs)
	}

	r4, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := readAll(r4)
	for _, want := range []string{
		`laxgw_breaker_state{node="node0"} 0`,
		`laxgw_breaker_state{node="node1"} 0`,
		"laxgw_jobs_accepted_total 1",
		"laxgw_redispatch_latency_us_count 0",
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func readAll(r *http.Response) ([]byte, error) {
	defer r.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}
