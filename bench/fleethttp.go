package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"laxgpu/internal/gateway"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
)

// nodeSpeed is the nodes' and the gateway's simulated-seconds-per-wall-second
// factor: at 20 a 150 µs kernel takes 7.5 µs of wall time, so the HTTP trip
// and completion propagation dominate and the simulator barely matters.
const nodeSpeed = 20

// traceEvery is how many completions a client lets pass between two
// GET /v1/jobs/{id}/trace reads: reads run beside writes on the gateway.
const traceEvery = 16

// fleetHTTP is a job's whole trip on loopback TCP: closed-loop clients POST
// /v1/jobs?wait=1 to gateway.Handler behind an http.Server, which fronts
// RemoteBackends to two laxd nodes (serve.Server behind http.Server, wired
// as laxgpu.StartServer wires them, which has no seam for the traced run's
// handler wrapper). Closed loop, cfg.clients clients, fixed duration.
type fleetHTTP struct {
	cfg  config
	plan []planJob
	next atomic.Int64 // next plan index, shared by the clients

	nodes      []*httpNode
	remotes    []*gateway.RemoteBackend
	transports []*http.Transport
	gw         *gateway.Gateway
	stopProber func()
	front      *http.Server
	base       string

	polls, node503 atomic.Int64
	mu             sync.Mutex // guards lagMs: done callbacks fire on poller goroutines
	lagMs          samples
	genLagUs       samples
	checkMs        float64
}

type httpNode struct {
	inner *serve.Server
	http  *http.Server
}

// listen serves h on an ephemeral loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // ErrServerClosed on Shutdown; close() waits for it
	return srv, "http://" + ln.Addr().String(), nil
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler is the HTTP middleware of the traced run: one span per
// request on either tier, and a count of the 503s it saw go out.
func traceHandler(tr *tracer, name spanName, lane uint8, unavailable *atomic.Int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		name := name
		if name == spNodeHandler && r.Method == http.MethodPost {
			name = spNodeSubmit
		}
		sp := tr.begin(name, lane, -1, -1)
		next.ServeHTTP(sw, r)
		tr.end(sp)
		if sw.code == http.StatusServiceUnavailable {
			unavailable.Add(1)
		}
	})
}

// tracedTransport is the http.RoundTripper of the traced run, installed on
// the RemoteBackends' client: one span per request the gateway sends a node.
type tracedTransport struct {
	base  http.RoundTripper
	tr    *tracer
	lane  uint8
	polls *atomic.Int64
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	name := spRemoteOther
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		name = spRemoteSubmit
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && !strings.HasSuffix(r.URL.Path, "/trace"):
		name = spRemotePoll
		t.polls.Add(1)
	}
	sp := t.tr.begin(name, t.lane, -1, -1)
	resp, err := t.base.RoundTrip(r)
	t.tr.end(sp)
	return resp, err
}

func (w *fleetHTTP) setup() error {
	// The clients walk the head of the fleet plan in order; a closed loop
	// at the poll interval needs a few thousand jobs at most.
	plan, err := buildPlan(w.cfg.seed, 0.05*w.cfg.seconds/defaultSeconds)
	if err != nil {
		return err
	}
	w.plan = plan
	tr := w.cfg.tr

	var backends []gateway.Backend
	for g := 0; g < fleetNodes; g++ {
		inner, err := serve.New(serve.Options{
			Scheduler: "LAX", Name: fmt.Sprintf("node%d", g), Speed: nodeSpeed, Seed: w.cfg.seed + int64(g),
		})
		if err != nil {
			return err
		}
		inner.Start()
		h := inner.Handler()
		if tr != nil {
			h = traceHandler(tr, spNodeHandler, uint8(20+g), &w.node503, h)
		}
		srv, url, err := listen(h)
		if err != nil {
			return err
		}
		w.nodes = append(w.nodes, &httpNode{inner: inner, http: srv})

		transport := http.DefaultTransport.(*http.Transport).Clone()
		w.transports = append(w.transports, transport)
		client := &http.Client{Timeout: 5 * time.Second, Transport: transport}
		if tr != nil {
			client.Transport = &tracedTransport{base: transport, tr: tr, lane: uint8(10 + g), polls: &w.polls}
		}
		rb := gateway.NewRemoteBackend(fmt.Sprintf("node%d", g), url, client)
		w.remotes = append(w.remotes, rb)
		var be gateway.Backend = rb
		if tr != nil {
			be = &tracedBackend{Backend: rb, tr: tr, lane: uint8(30 + g), onDone: w.completionLag}
		}
		backends = append(backends, be)
	}

	clock := serve.NewWallClock(nodeSpeed)
	if w.gw, err = gateway.New(gateway.Options{Backends: backends, Clock: clock, Seed: w.cfg.seed}); err != nil {
		return err
	}
	h := w.gw.Handler()
	if tr != nil {
		var ignored atomic.Int64
		h = traceHandler(tr, spGatewayHandler, 40, &ignored, h)
	}
	if w.front, w.base, err = listen(h); err != nil {
		return err
	}
	w.gw.TickProbes(clock.Now())
	w.stopProber = w.gw.StartProber(50 * time.Millisecond)

	// Warm-up: a few jobs down the whole path, so connections are open and
	// every handler has run once.
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	var warm tally
	for i := 0; i < 4; i++ {
		w.post(client, nil, 0, w.plan[i%len(w.plan)], &warm)
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.failures[0])
	}
	return nil
}

// completionLag is the decorator's onDone hook: how long after the node
// finished a job the gateway heard of it. The node's finish is placed from
// outside — the instant its submit reply arrived plus the job's simulated
// latency at the node's clock speed.
func (w *fleetHTTP) completionLag(job *gateway.Job, returnedUnixNano int64, o gateway.Outcome) {
	if returnedUnixNano == 0 {
		return
	}
	finished := returnedUnixNano + int64(float64(o.Latency)/nodeSpeed)
	lag := float64(time.Now().UnixNano()-finished) / 1e6
	w.mu.Lock()
	w.lagMs = append(w.lagMs, lag)
	w.mu.Unlock()
}

// post sends one job and waits for its terminal state, returning the
// gateway's job ID (-1 when none was minted).
func (w *fleetHTTP) post(client *http.Client, tr *tracer, lane uint8, j planJob, t *tally) (id int64, accepted bool) {
	body := fmt.Sprintf(`{"benchmark":%q,"deadline_us":%d,"criticality":%q}`,
		j.bench.Name, int64(j.deadline/sim.Microsecond), j.class.String())
	sp := tr.begin(spClientPost, lane, -1, -1)
	defer tr.end(sp)
	resp, err := client.Post(w.base+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.op(false, "POST /v1/jobs: %v", err)
		return -1, false
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		t.op(false, "POST /v1/jobs: reading reply: %v", err)
		return -1, false
	case resp.StatusCode == http.StatusTooManyRequests:
		// Refused by admission or shed: a terminal state, deadline missed.
		t.attempted++
		t.jobs++
		return -1, false
	case resp.StatusCode != http.StatusOK:
		t.op(false, "POST /v1/jobs: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return -1, false
	}
	var st gateway.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.op(false, "POST /v1/jobs: bad reply: %v", err)
		return -1, false
	}
	tr.setJob(sp, st.ID)
	terminal := st.State == "done" || st.State == "fallback" || st.State == "cancelled"
	t.op(terminal, "job %d came back from wait=1 in state %q", st.ID, st.State)
	if terminal {
		t.jobs++
		if st.MetDeadline {
			t.met++
		}
	}
	return st.ID, true
}

// readTrace fetches one finished job's stitched trace and checks it: spans
// from the gateway and from a node, and phases that sum to the latency.
func (w *fleetHTTP) readTrace(client *http.Client, tr *tracer, lane uint8, id int64, t *tally) {
	sp := tr.begin(spClientTrace, lane, -1, id)
	defer tr.end(sp)
	resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/%d/trace", w.base, id))
	if err != nil {
		t.op(false, "GET trace %d: %v", id, err)
		return
	}
	var doc obs.TraceDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.op(false, "GET trace %d: status %d, decode error %v", id, resp.StatusCode, err)
		return
	}
	gatewaySpans, nodeSpans := 0, 0
	for _, s := range doc.Trace.Spans {
		if s.Node == "laxgw" {
			gatewaySpans++
		} else {
			nodeSpans++
		}
	}
	var phases float64
	for _, p := range doc.Attribution.Phases {
		phases += p.DurUs
	}
	lat := doc.Trace.LatencyUs
	t.op(gatewaySpans > 0 && nodeSpans > 0 && math.Abs(phases-lat) <= 1e-6*lat+1e-3,
		"trace of job %d: %d gateway spans, %d node spans, phases sum to %.3f µs of %.3f µs latency",
		id, gatewaySpans, nodeSpans, phases, lat)
}

func (w *fleetHTTP) drive(t *tally) error {
	tr := w.cfg.tr
	tallies := make([]tally, w.cfg.clients)
	genLag := make([]samples, w.cfg.clients)
	deadline := time.Now().Add(time.Duration(w.cfg.seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			transport := http.DefaultTransport.(*http.Transport).Clone()
			defer transport.CloseIdleConnections()
			client := &http.Client{Timeout: 30 * time.Second, Transport: transport}
			var replied time.Time
			for done := 0; time.Now().Before(deadline); {
				j := w.plan[int(w.next.Add(1)-1)%len(w.plan)]
				sent := time.Now()
				if !replied.IsZero() {
					genLag[c] = append(genLag[c], float64(sent.Sub(replied).Nanoseconds())/1e3)
				}
				id, accepted := w.post(client, tr, uint8(c), j, t)
				replied = time.Now()
				t.opsUs = append(t.opsUs, float64(replied.Sub(sent).Nanoseconds())/1e3)
				if !accepted {
					continue
				}
				if done++; done%traceEvery == 0 {
					w.readTrace(client, tr, uint8(c), id, t)
					replied = time.Now()
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for c := range tallies {
		t.jobs += tallies[c].jobs
		t.met += tallies[c].met
		t.attempted += tallies[c].attempted
		t.failed += tallies[c].failed
		t.failures = append(t.failures, tallies[c].failures...)
		t.opsUs = append(t.opsUs, tallies[c].opsUs...)
		w.genLagUs = append(w.genLagUs, genLag[c]...)
	}
	t.jobsPerS = float64(t.jobs) / wall.Seconds()
	return nil
}

func (w *fleetHTTP) check(t *tally) {
	// Every wait=1 reply was terminal, so the fleet is already drained; allow
	// the journal a moment for the last completion callbacks.
	for i := 0; w.gw.Inflight() > 0 && i < 500; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(w.base + "/v1/fleet")
	if err != nil {
		t.op(false, "GET /v1/fleet: %v", err)
		return
	}
	var fs gateway.FleetStatus
	err = json.NewDecoder(resp.Body).Decode(&fs)
	resp.Body.Close()
	t.op(err == nil && fs.Violations == 0 && fs.Inflight == 0,
		"/v1/fleet after drain: %d violations, %d in flight (decode error %v)", fs.Violations, fs.Inflight, err)
	t.op(fs.Duplicates == 0, "%d duplicate terminal reports", fs.Duplicates)

	sp := w.cfg.tr.begin(spGatewayCheck, 0, -1, -1)
	t0 := time.Now()
	violations := w.gw.Check(w.gw.Clock().Now())
	w.checkMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	w.cfg.tr.end(sp)
	t.op(len(violations) == 0, "journal violations: %v", violations)
}

func (w *fleetHTTP) layers(m metricSet, t *tally) {
	tr := w.cfg.tr
	sorted := t.opsUs.sorted()
	m.put("job_wall_ms_p50", "ms", sorted.quantile(0.5)/1e3, len(sorted))
	p99, enough := t.opsUs.p99()
	t.op(enough || w.cfg.mini, "job_wall_ms_p99 from %d samples: run undersized", len(sorted))
	m.put("job_wall_ms_p99", "ms", p99/1e3, len(sorted))

	submits := tr.durationsUs(spBackendSubmit)
	m.put("gateway.backend_submit_us_p50", "us", submits.median(), len(submits))
	// The remote hop is what the round trip costs beyond the node's own
	// handler: connection, serialisation, loopback.
	hop, handler := tr.durationsUs(spRemoteSubmit), tr.durationsUs(spNodeSubmit)
	m.put("gateway.remote_hop_us_p50", "us", hop.median()-handler.median(), len(hop))
	w.mu.Lock()
	lag := w.lagMs
	w.mu.Unlock()
	m.put("gateway.completion_lag_ms_p50", "ms", lag.median(), len(lag))
	st := w.gw.Stats()
	m.put("gateway.polls_per_job", "1/job", float64(w.polls.Load())/float64(max(st.Accepted, 1)), int(st.Accepted))
	m.put("serve.backpressure_503", "count", float64(w.node503.Load()), 0)
	lagSorted := w.genLagUs.sorted()
	m.put("bench.generator_lag_us_p99", "us", lagSorted.quantile(0.99), len(lagSorted))
	m.put("verify.fleet_check_ms", "ms", w.checkMs, 1)
	gatewayCounts(m, w.gw)
}

func (w *fleetHTTP) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if w.stopProber != nil {
		w.stopProber()
	}
	if w.front != nil {
		_ = w.front.Shutdown(ctx) // best-effort teardown; the run is already measured
	}
	for _, rb := range w.remotes {
		rb.Close()
	}
	for _, n := range w.nodes {
		_ = n.inner.Shutdown(ctx)
		_ = n.http.Shutdown(ctx)
	}
	for _, tp := range w.transports {
		tp.CloseIdleConnections()
	}
}
