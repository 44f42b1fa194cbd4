package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/gpu"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// maxOverrideKernels bounds an explicit WGList override so one request
// cannot allocate unbounded kernel instances.
const maxOverrideKernels = 4096

// Options configures a serving frontend.
type Options struct {
	// Scheduler names the device's queue policy (default "LAX").
	Scheduler string

	// Name identifies this node in trace spans — the node label a gateway
	// tier sees when it stitches a job's cross-process trace (default
	// "laxd").
	Name string

	// TraceDepth bounds the ring of finished job traces behind
	// GET /v1/jobs/{id}/trace and /v1/traces. 0 selects the default (256);
	// negative disables tracing entirely.
	TraceDepth int

	// Speed is the simulated-seconds-per-wall-second factor (default 1 =
	// real time). Tests and demos compress time with larger values.
	Speed float64

	// AcceptQueue caps the callers waiting for or holding the device's
	// driver; one more surfaces as HTTP 503 backpressure (default 64).
	AcceptQueue int

	// MaxPerClient caps one client's in-flight (non-terminal) jobs;
	// exceeding it yields HTTP 429 before admission runs (default 64).
	MaxPerClient int

	// DrainGrace is the wall-clock grace Shutdown gives in-flight jobs to
	// finish naturally before forcing the CPU-fallback path (default 5s).
	DrainGrace time.Duration

	// Faults optionally degrades the device: one faults.ParseSpec string.
	Faults string

	// Seed feeds the fault plan and the benchmark sampler.
	Seed int64
}

// Server is the HTTP serving frontend of one device: it runs the paper's
// admission test on the device's live queue state, reports verdicts as
// status codes (202 admitted, 429 rejected-to-CPU with a Retry-After drain
// estimate), and tracks every job to a terminal state. A fleet of them is
// laxgw's job.
type Server struct {
	opts  Options
	clock Clock
	reg   *obs.Registry
	lib   *workload.Library
	gpu   gpu.Config

	host *Host[int64] // a job's key is its record ID

	records *recordTable
	broker  *broker

	// mu guards ID allocation, sampling and client limits, and is held
	// around records.add.
	mu        sync.Mutex
	rng       *sim.RNG
	nextID    int64
	perClient map[string]int
	inflight  int

	draining atomic.Bool

	cSubmitted, cAdmitted, cRejected     *obs.Counter
	cCompleted, cMet, cFellBack          *obs.Counter
	cCancelled, cOverflow, cLimited      *obs.Counter
	cDrainRejected, cPanics, cSSEDropped *obs.Counter
	gInflight                            *obs.Gauge
	cMissCause                           map[string]*obs.Counter
}

// New builds a server and its device's node and driver. Call Start to begin
// pacing.
func New(opts Options) (*Server, error) {
	return newServer(opts, NewWallClock(opts.Speed), maxRecords)
}

// newServer is New on the given clock, keeping up to records job records.
func newServer(opts Options, clock Clock, records int) (*Server, error) {
	if opts.Scheduler == "" {
		opts.Scheduler = "LAX"
	}
	if opts.Name == "" {
		opts.Name = "laxd"
	}
	if opts.Speed <= 0 {
		opts.Speed = 1
	}
	if opts.MaxPerClient < 1 {
		opts.MaxPerClient = 64
	}
	if opts.DrainGrace <= 0 {
		opts.DrainGrace = 5 * time.Second
	}
	sysCfg := cp.DefaultSystemConfig() // the paper's Table 2 system
	spec, err := faults.ParseSpec(opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	reg := obs.NewRegistry()
	s := &Server{
		opts:      opts,
		clock:     clock,
		reg:       reg,
		lib:       workload.NewLibrary(sysCfg.GPU),
		gpu:       sysCfg.GPU,
		records:   newRecordTable(records),
		rng:       sim.NewRNG(opts.Seed),
		perClient: make(map[string]int),

		cSubmitted:     reg.Counter("laxd_jobs_submitted_total", "Jobs received on POST /v1/jobs (before admission)."),
		cAdmitted:      reg.Counter("laxd_jobs_admitted_total", "Jobs admitted by Algorithm 1 (HTTP 202)."),
		cRejected:      reg.Counter("laxd_jobs_rejected_total", "Jobs rejected by Algorithm 1 (HTTP 429)."),
		cCompleted:     reg.Counter("laxd_jobs_completed_total", "Jobs that reached a finished terminal state."),
		cMet:           reg.Counter("laxd_jobs_met_deadline_total", "Finished jobs that met their deadline."),
		cFellBack:      reg.Counter("laxd_jobs_fallback_total", "Jobs completed on the CPU fallback path."),
		cCancelled:     reg.Counter("laxd_jobs_cancelled_total", "Jobs cancelled mid-flight."),
		cOverflow:      reg.Counter("laxd_accept_queue_overflow_total", "Submissions refused because the accept queue was full (HTTP 503)."),
		cLimited:       reg.Counter("laxd_client_limited_total", "Submissions refused by the per-client in-flight cap (HTTP 429)."),
		cDrainRejected: reg.Counter("laxd_drain_rejected_total", "Submissions refused because the server was draining (HTTP 503)."),
		cPanics:        reg.Counter("laxd_handler_panics_total", "HTTP handler panics recovered (HTTP 500)."),
		cSSEDropped:    reg.Counter("laxd_sse_dropped_total", "Events dropped because an SSE subscriber fell behind."),
		gInflight:      reg.Gauge("laxd_inflight_jobs", "Submitted jobs not yet in a terminal state."),
	}
	s.broker = newBroker(s.cSSEDropped)

	// Miss-cause attribution counters: one series per taxonomy member,
	// pre-created so the exposition is deterministic from the first scrape.
	s.cMissCause = make(map[string]*obs.Counter)
	for _, k := range metrics.MissKinds() {
		s.cMissCause[k.String()] = reg.CounterWith("laxd_miss_cause_total",
			"Deadline misses by dominant cause (metrics.ClassifyMiss taxonomy).",
			map[string]string{"cause": k.String()})
	}

	s.host, err = NewHost(NodeConfig{
		System:    sysCfg,
		Scheduler: opts.Scheduler,
		Faults:    spec,
		Seed:      opts.Seed,
	}, s.clock, opts.AcceptQueue, reg, opts.TraceDepth, s.completeJob)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Start launches the device's pacer.
func (s *Server) Start() { s.host.Start() }

// Shutdown gracefully drains the server: new submissions are refused, the
// device keeps executing until its in-flight jobs reach terminal states or
// the drain grace expires (remaining jobs are forced onto the CPU-fallback
// path so they still terminate and are accounted), and the event stream is
// closed. It returns ctx.Err if the context expires before the drain
// completes — the driver still finishes in the background.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		go func() {
			s.host.Shutdown(s.opts.DrainGrace)
			s.broker.close()
		}()
	}
	select {
	case <-s.host.Done():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the server's HTTP handler: the /v1 job API, /v1/events
// SSE stream, Prometheus /metrics and /healthz, all wrapped in a
// panic-isolating middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", JobHandler(s.records.get))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /v1/headroom", s.handleHeadroom)
	mux.HandleFunc("GET /metrics", MetricsHandler(s.reg))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.recoverPanics(mux)
}

// recoverPanics converts a handler panic into a 500 and a counter rather
// than a dropped connection and a dead process.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.cPanics.Inc()
				WriteError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	JobRequest

	// Kernels optionally overrides the sampled kernel chain with an
	// explicit WGList: each entry launches Count instances of Kernel.
	Kernels []kernelCount `json:"kernels,omitempty"`
}

// kernelCount is one WGList override entry.
type kernelCount struct {
	Kernel string `json:"kernel"`
	Count  int    `json:"count"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.cDrainRejected.Inc()
		WriteReject(w, http.StatusServiceUnavailable, ReasonDrain, "server is draining",
			sim.FromDuration(s.opts.DrainGrace))
		return
	}
	var req submitRequest
	bench, deadline, ok := DecodeJob(w, r, &req, &req.JobRequest)
	if !ok {
		return
	}

	job := workload.Job{Benchmark: bench.Name, Deadline: deadline}
	if len(req.Kernels) > 0 {
		total := 0
		for _, kc := range req.Kernels {
			desc, ok := s.lib.Find(kc.Kernel)
			if !ok {
				WriteError(w, http.StatusBadRequest, "unknown kernel "+strconv.Quote(kc.Kernel))
				return
			}
			n := kc.Count
			if n < 1 {
				n = 1
			}
			if total += n; total > maxOverrideKernels {
				WriteError(w, http.StatusBadRequest, fmt.Sprintf("kernel override exceeds %d launches", maxOverrideKernels))
				return
			}
			for i := 0; i < n; i++ {
				job.Kernels = append(job.Kernels, desc)
			}
		}
	}
	client := clientKey(r.RemoteAddr)
	// Adopt a propagated trace ID (W3C traceparent, stamped by a gateway
	// tier) or mint a deterministic one, so every job's spans are
	// addressable whether or not a caller traces it.
	traceID, _, hasParent := obs.ParseTraceparent(r.Header.Get("traceparent"))

	// Under the lock: ID allocation, the record (so the table sees IDs in
	// order), per-client cap and — for jobs without an explicit WGList — the
	// benchmark sample, which must draw from the shared RNG stream.
	s.mu.Lock()
	if s.perClient[client] >= s.opts.MaxPerClient {
		s.mu.Unlock()
		s.cLimited.Inc()
		// The honest hint is "when will one of this client's jobs finish";
		// the server cannot know that cheaply, so it hints one second — the
		// floor WriteReject applies to unknown retry times.
		WriteReject(w, http.StatusTooManyRequests, ReasonClientLimit,
			"too many in-flight jobs for this client", 0)
		return
	}
	if len(job.Kernels) == 0 {
		job.Kernels, job.SeqLen = bench.SampleChain(s.lib, s.rng)
	}
	id := s.nextID
	s.nextID++
	if !hasParent {
		traceID = obs.TraceIDFrom(uint64(s.opts.Seed), uint64(id))
	}
	s.records.add(id, bench.Name, usOf(deadline), traceID, client)
	s.perClient[client]++
	s.inflight++
	s.gInflight.Set(float64(s.inflight))
	s.mu.Unlock()
	s.cSubmitted.Inc()

	// The verdict's bookkeeping runs with the node held, ahead of any
	// completion the node will deliver.
	var rejected bool
	var retry sim.Time
	ok = s.host.Call(func() {
		var jr *cp.JobRun
		jr, retry = s.host.Submit(&job, traceID, id)
		if rejected = jr.Rejected(); rejected {
			st, _, _ := s.records.finish(id, func(js *JobStatus) {
				js.State = "rejected"
				js.Reason = ReasonAdmission
				js.MissCause = metrics.MissRejected.String()
				js.RetryAfterUs = usOf(retry)
			})
			s.cRejected.Inc()
			s.cMissCause[metrics.MissRejected.String()].Inc()
			s.releaseClient(client)
			s.records.settle(id)
			s.broker.publish("rejected", st)
			return
		}
		st := s.records.update(id, func(js *JobStatus) {
			js.State = "admitted"
			js.Admitted = true
		})
		s.cAdmitted.Inc()
		s.broker.publish("admitted", st)
	})
	if !ok {
		s.cOverflow.Inc()
		s.records.finish(id, func(js *JobStatus) { js.State = "dropped" })
		s.releaseClient(client)
		s.records.settle(id)
		WriteReject(w, http.StatusServiceUnavailable, ReasonBackpressure, "accept queue full", 0)
		return
	}

	st, _ := s.records.get(id)
	if rejected {
		secs := int64(retry/sim.Second) + 1
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		WriteJSON(w, http.StatusTooManyRequests, st)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-s.records.done(id):
			st, _ = s.records.get(id)
			WriteJSON(w, http.StatusOK, st)
		case <-r.Context().Done():
		}
		return
	}
	WriteJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := s.broker.subscribe()
	defer cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case payload, open := <-ch:
			if !open {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", payload)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// benchmarkInfo is one GET /v1/benchmarks entry.
type benchmarkInfo struct {
	// Name is the Table 4 benchmark name.
	Name string `json:"name"`

	// DeadlineUs is the benchmark's relative deadline in microseconds.
	DeadlineUs int64 `json:"deadline_us"`

	// RatesPerSec maps the paper's load levels to offered jobs/second.
	RatesPerSec map[string]int `json:"rates_per_sec"`

	// CapacityJobsPerSec estimates the device's sustainable wall-clock rate
	// from static serial job times and the clock speed — the anchor load
	// generators scale against.
	CapacityJobsPerSec float64 `json:"capacity_jobs_per_sec"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	var out []benchmarkInfo
	for _, b := range workload.Benchmarks() {
		rates := make(map[string]int, 3)
		for _, lvl := range []workload.Rate{workload.LowRate, workload.MediumRate, workload.HighRate} {
			rates[lvl.String()] = b.JobsPerSecond(lvl)
		}
		out = append(out, benchmarkInfo{
			Name:               b.Name,
			DeadlineUs:         usOf(b.Deadline),
			RatesPerSec:        rates,
			CapacityJobsPerSec: s.benchmarkCapacity(b),
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

// benchmarkCapacity estimates sustainable jobs per *wall* second for the
// device: one over the mean serial job time of a fixed deterministic sample,
// scaled by the clock speed (a time-compressed server drains proportionally
// more wall-clock arrivals). Load generators anchor their offered rates
// against this, so "2x capacity" overloads at any -speed.
func (s *Server) benchmarkCapacity(b *workload.Benchmark) float64 {
	const samples = 32
	rng := sim.NewRNG(12345)
	var total sim.Time
	for i := 0; i < samples; i++ {
		kernels, _ := b.SampleChain(s.lib, rng)
		total += gpu.SerialTime(s.gpu, kernels)
	}
	mean := float64(total) / samples
	if mean <= 0 {
		return 0
	}
	return s.opts.Speed * float64(sim.Second) / mean
}

// HeadroomStatus is the GET /v1/headroom payload: the node's live laxity
// headroom, as computed by its own admission machinery. A gateway tier
// routes on this instead of guessing load from what it sent where —
// drain_us is the node's Algorithm 1 estimate of how long it needs to
// finish everything already admitted, so low drain means high headroom.
type HeadroomStatus struct {
	// DrainUs is the device's predicted drain time (simulated µs).
	DrainUs int64 `json:"drain_us"`

	// Unfinished is the count of admitted, non-terminal jobs.
	Unfinished int `json:"unfinished"`

	// CapacityFrac is the fraction of the device's CUs that survive
	// retirement, in (0, 1]. A gateway weighs routing by it and an
	// autoscaler reads a shrinking fraction as capacity loss.
	CapacityFrac float64 `json:"capacity_frac,omitempty"`

	// Draining reports a node refusing new work (graceful shutdown).
	Draining bool `json:"draining"`

	// Scheduler names the node's queue policy.
	Scheduler string `json:"scheduler"`
}

func (s *Server) handleHeadroom(w http.ResponseWriter, r *http.Request) {
	drain, unfinished, frac, ok := s.host.Headroom()
	if !ok {
		WriteError(w, http.StatusServiceUnavailable, "node is not accepting probes")
		return
	}
	WriteJSON(w, http.StatusOK, HeadroomStatus{
		DrainUs:      usOf(drain),
		Unfinished:   unfinished,
		CapacityFrac: frac,
		Draining:     s.draining.Load(),
		Scheduler:    s.opts.Scheduler,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"scheduler": s.opts.Scheduler,
	})
}

// completeJob finalizes job id's record when it finishes or is cancelled.
// The Host calls it with the node held, so reading the JobRun is safe.
func (s *Server) completeJob(id int64, jr *cp.JobRun, e obs.JobEvent) {
	state, met := "cancelled", false
	if e.Kind == obs.JobFinish {
		state, met = "done", e.Met
	}
	cause := ""
	if !met {
		cause = metrics.ClassifyMiss(jr).String()
	}
	st, client, first := s.records.finish(id, func(js *JobStatus) {
		js.State = state
		js.MetDeadline = met
		js.FellBack = jr.FellBack
		js.LatencyUs = usOf(jr.Latency())
		js.MissCause = cause
	})
	if !first {
		return
	}
	if c := s.cMissCause[cause]; c != nil {
		c.Inc()
	}
	switch state {
	case "done":
		s.cCompleted.Inc()
		if met {
			s.cMet.Inc()
		}
		if jr.FellBack {
			s.cFellBack.Inc()
		}
	case "cancelled":
		s.cCancelled.Inc()
	}
	s.releaseClient(client)
	// A waiter woken by settle reads counters that already include this job.
	s.records.settle(id)
	s.broker.publish(state, st)
}

// releaseClient returns one in-flight slot to the client's budget.
func (s *Server) releaseClient(client string) {
	s.mu.Lock()
	if n := s.perClient[client]; n <= 1 {
		delete(s.perClient, client)
	} else {
		s.perClient[client] = n - 1
	}
	s.inflight--
	s.gInflight.Set(float64(s.inflight))
	s.mu.Unlock()
}

// clientKey reduces a RemoteAddr to its host, so ports (one per connection)
// do not defeat the per-client limit.
func clientKey(remote string) string {
	if host, _, err := net.SplitHostPort(remote); err == nil {
		return host
	}
	return remote
}
