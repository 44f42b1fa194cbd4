package obs

import (
	"fmt"
	"strconv"
	"sync"

	"laxgpu/internal/sim"
)

// Span kinds. A phase span covers a contiguous slice of a job's lifetime
// (the parse/queue/exec partition that slack attribution sums); a kernel
// span covers one kernel execution; an event span is an instant (End ==
// Start) marking a decision or transition.
const (
	SpanPhase  = "phase"
	SpanKernel = "kernel"
	SpanEvent  = "event"
)

// Phase and event names used by the recorder and by gateway stitching. The
// phase names form a contiguous partition of [arrival, finish], so their
// durations sum exactly to the job's latency — the property the slack
// attribution layer and the trace smoke test both rely on.
const (
	PhaseParse    = "parse"    // arrival → stream inspection done
	PhaseQueue    = "queue"    // ready → first kernel dispatch
	PhaseExec     = "exec"     // first dispatch → finish
	PhaseFallback = "fallback" // ready → finish when the job never dispatched

	EventAdmit      = "admit"        // admission verdict
	EventFallback   = "cpu_fallback" // job switched to the host CPU path
	EventRoute      = "route"        // gateway routing decision
	EventRedispatch = "redispatch"   // gateway failover re-dispatch
	EventBreaker    = "breaker"      // gateway circuit-breaker transition
	EventScaleUp    = "scale-up"     // autoscaler added a node to the fleet
	EventScaleDrain = "scale-drain"  // autoscaler began draining a node
	EventRetire     = "retire"       // a drained node left the fleet
)

// Span is one element of a job's timeline, in the recording node's own
// simulated clock. End == Start marks an instant event.
type Span struct {
	Kind   string
	Name   string
	Start  sim.Time
	End    sim.Time
	Detail string
}

// JobTrace is one job's complete timeline on one node, assembled by a
// TraceRecorder from probe events. Times are node-local sim times; convert
// with Wire before crossing a process boundary.
type JobTrace struct {
	TraceID   string
	Job       int
	Benchmark string
	Arrival   sim.Time
	Deadline  sim.Time // absolute
	Finish    sim.Time // terminal instant (finish, reject or cancel)
	State     string   // "running", "done", "rejected", "cancelled"
	Met       bool
	FellBack  bool
	Spans     []Span

	firstDispatch sim.Time
	ready         sim.Time
	hasReady      bool
	hasDispatch   bool
}

// WireSpan is a Span flattened for transport: start/end are microseconds
// relative to the job's arrival on the recording node, so stitched traces
// need no cross-process clock agreement (every laxd anchors its sim clock
// at its own process start).
type WireSpan struct {
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	Node    string  `json:"node"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Detail  string  `json:"detail,omitempty"`
}

// WireTrace is the cross-process trace document served by
// GET /v1/jobs/{id}/trace on laxd and, stitched, on laxgw.
type WireTrace struct {
	TraceID   string     `json:"trace_id"`
	Job       string     `json:"job"`
	Benchmark string     `json:"benchmark"`
	Node      string     `json:"node"`
	State     string     `json:"state"`
	Met       bool       `json:"met"`
	FellBack  bool       `json:"fell_back"`
	SlackUs   float64    `json:"slack_us"`   // deadline − arrival
	LatencyUs float64    `json:"latency_us"` // finish − arrival
	Spans     []WireSpan `json:"spans"`
}

// TraceDoc is the document served by the trace endpoints and written by
// laxtrace -o: the (possibly stitched) timeline plus its slack attribution.
type TraceDoc struct {
	Trace       WireTrace   `json:"trace"`
	Attribution Attribution `json:"attribution"`
}

// Wire converts the trace for transport, stamping every span with node.
func (t *JobTrace) Wire(node string) WireTrace {
	w := WireTrace{
		TraceID:   t.TraceID,
		Job:       fmt.Sprintf("%d", t.Job),
		Benchmark: t.Benchmark,
		Node:      node,
		State:     t.State,
		Met:       t.Met,
		FellBack:  t.FellBack,
		SlackUs:   us(t.Deadline - t.Arrival),
		LatencyUs: us(t.Finish - t.Arrival),
		Spans:     make([]WireSpan, 0, len(t.Spans)),
	}
	for _, s := range t.Spans {
		w.Spans = append(w.Spans, WireSpan{
			Kind: s.Kind, Name: s.Name, Node: node,
			StartUs: us(s.Start - t.Arrival),
			EndUs:   us(s.End - t.Arrival),
			Detail:  s.Detail,
		})
	}
	return w
}

// TraceRecorder is a Probe that assembles one JobTrace per job: the
// admission verdict, the parse/queue/exec phase partition, every kernel
// execution, and the CPU-fallback transition. Finished traces are kept in a
// bounded ring (oldest evicted); live traces are keyed by the node-local
// job ID. Probe callbacks arrive from whoever holds the node; Get/Recent/Assign
// may be called concurrently from HTTP handlers, so every method locks.
//
// A nil *TraceRecorder is never attached (obs.Multi drops nils), so runs
// without tracing keep the plain nil-probe hot path and allocate nothing.
type TraceRecorder struct {
	mu       sync.Mutex
	depth    int
	live     map[int]*JobTrace
	done     []*JobTrace // ring, insertion order; done[next] is oldest
	next     int
	inflight int // admitted, not yet terminal — the "behind N jobs" count
}

// NewTraceRecorder returns a recorder retaining up to depth finished traces
// (depth <= 0 selects the default of 256).
func NewTraceRecorder(depth int) *TraceRecorder {
	if depth <= 0 {
		depth = 256
	}
	return &TraceRecorder{
		depth: depth,
		live:  make(map[int]*JobTrace),
	}
}

// Assign binds an externally propagated trace ID (from a traceparent
// header) to a job's trace, live or finished.
func (r *TraceRecorder) Assign(job int, traceID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.lookupLocked(job); t != nil {
		t.TraceID = traceID
	}
}

// Get returns a copy of the job's trace, or false if it was never recorded
// or already evicted.
func (r *TraceRecorder) Get(job int) (JobTrace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.lookupLocked(job); t != nil {
		return snapshot(t), true
	}
	return JobTrace{}, false
}

// GetByID returns a copy of the trace bound (via Assign) to traceID.
func (r *TraceRecorder) GetByID(traceID string) (JobTrace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.live {
		if t.TraceID == traceID {
			return snapshot(t), true
		}
	}
	for _, t := range r.done {
		if t.TraceID == traceID {
			return snapshot(t), true
		}
	}
	return JobTrace{}, false
}

// Recent returns copies of up to n finished traces, newest first.
func (r *TraceRecorder) Recent(n int) []JobTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.done) {
		n = len(r.done)
	}
	out := make([]JobTrace, 0, n)
	for i := 0; i < n; i++ {
		// Newest is the slot just before next (ring insertion order).
		idx := (r.next - 1 - i + len(r.done)) % len(r.done)
		out = append(out, snapshot(r.done[idx]))
	}
	return out
}

func (r *TraceRecorder) lookupLocked(job int) *JobTrace {
	if t, ok := r.live[job]; ok {
		return t
	}
	for _, t := range r.done {
		if t.Job == job {
			return t
		}
	}
	return nil
}

func snapshot(t *JobTrace) JobTrace {
	c := *t
	c.Spans = append([]Span(nil), t.Spans...)
	return c
}

// finishLocked moves a live trace into the done ring.
func (r *TraceRecorder) finishLocked(t *JobTrace) {
	delete(r.live, t.Job)
	if len(r.done) < r.depth {
		r.done = append(r.done, t)
		r.next = len(r.done) % r.depth
		return
	}
	r.done[r.next] = t
	r.next = (r.next + 1) % r.depth
}

// Job implements Probe.
func (r *TraceRecorder) Job(e JobEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e.Kind {
	case JobArrive:
		r.live[e.Job] = &JobTrace{
			Job: e.Job, Benchmark: e.Benchmark,
			Arrival: e.At, Deadline: e.Deadline, State: "running",
		}
	case JobReject:
		if t, ok := r.live[e.Job]; ok {
			t.State, t.Finish = "rejected", e.At
			r.finishLocked(t)
		}
	case JobReady:
		if t, ok := r.live[e.Job]; ok {
			t.ready, t.hasReady = e.At, true
			t.Spans = append(t.Spans, Span{
				Kind: SpanPhase, Name: PhaseParse, Start: t.Arrival, End: e.At,
			})
		}
	case JobFallback:
		if t, ok := r.live[e.Job]; ok {
			t.FellBack = true
			t.Spans = append(t.Spans, Span{
				Kind: SpanEvent, Name: EventFallback, Start: e.At, End: e.At,
				Detail: "remaining kernels moved to the host CPU",
			})
		}
	case JobFinish, JobCancel:
		t, ok := r.live[e.Job]
		if !ok {
			return
		}
		r.inflight-- // finished and cancelled jobs were both admitted
		t.Finish = e.At
		if e.Kind == JobCancel {
			t.State = "cancelled"
		} else {
			t.State, t.Met = "done", e.Met
		}
		r.closePhasesLocked(t)
		r.finishLocked(t)
	}
}

// closePhasesLocked appends the remaining phase spans so that the phase
// partition covers [arrival, finish] exactly:
//
//	dispatched:       parse | queue | exec
//	never dispatched: parse | fallback   (CPU-only completion)
func (r *TraceRecorder) closePhasesLocked(t *JobTrace) {
	switch {
	case t.hasDispatch:
		t.Spans = append(t.Spans, Span{
			Kind: SpanPhase, Name: PhaseExec, Start: t.firstDispatch, End: t.Finish,
		})
	case t.hasReady:
		t.Spans = append(t.Spans, Span{
			Kind: SpanPhase, Name: PhaseFallback, Start: t.ready, End: t.Finish,
			Detail: "completed without ever dispatching to the GPU",
		})
	default:
		// Terminal before stream inspection finished (e.g. cancelled while
		// host-queued): the whole lifetime is parse.
		t.Spans = append(t.Spans, Span{
			Kind: SpanPhase, Name: PhaseParse, Start: t.Arrival, End: t.Finish,
		})
	}
}

// Admission implements Probe.
func (r *TraceRecorder) Admission(e AdmissionDecision) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.live[e.Job]
	if !ok {
		return
	}
	verdict := "reject"
	if e.Accepted {
		verdict = "accept"
		r.inflight++
	}
	detail := verdict
	if e.HasTerms {
		detail = admissionDetail(verdict, e.QueueDelay, e.HoldTime, e.Deadline)
	}
	t.Spans = append(t.Spans, Span{
		Kind: SpanEvent, Name: EventAdmit, Start: e.At, End: e.At, Detail: detail,
	})
}

// admissionDetail renders the Algorithm 1 terms in whole microseconds. Span
// details are written for every job and read for the few a ring still holds,
// so they are appended into a stack buffer — one allocation — not formatted.
func admissionDetail(verdict string, queueDelay, hold, deadline sim.Time) string {
	b := append(make([]byte, 0, 96), verdict...)
	b = strconv.AppendInt(append(b, ": queue_delay="...), int64(us(queueDelay)), 10)
	b = strconv.AppendInt(append(b, "us + hold="...), int64(us(hold)), 10)
	b = strconv.AppendInt(append(b, "us vs deadline="...), int64(us(deadline)), 10)
	return string(append(b, "us"...))
}

// intDetail renders prefix, n in decimal, suffix, likewise.
func intDetail(prefix string, n int, suffix string) string {
	b := strconv.AppendInt(append(make([]byte, 0, 48), prefix...), int64(n), 10)
	return string(append(b, suffix...))
}

// Epoch implements Probe (epochs are fleet-wide, not per-job).
func (r *TraceRecorder) Epoch(EpochSnapshot) {}

// Sample implements Probe (laxity samples stay in Metrics/Perfetto).
func (r *TraceRecorder) Sample(JobSample) {}

// TableRefresh implements Probe.
func (r *TraceRecorder) TableRefresh(TableRefresh) {}

// KernelStart implements Probe: the first dispatch closes the queue phase
// and records where exec begins; every dispatch opens a kernel span.
func (r *TraceRecorder) KernelStart(e KernelStart) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.live[e.Job]
	if !ok {
		return
	}
	if !t.hasDispatch {
		t.firstDispatch, t.hasDispatch = e.At, true
		start := t.Arrival
		if t.hasReady {
			start = t.ready
		}
		behind := r.inflight - 1
		if behind < 0 {
			behind = 0
		}
		t.Spans = append(t.Spans, Span{
			Kind: SpanPhase, Name: PhaseQueue, Start: start, End: e.At,
			Detail: intDetail("behind ", behind, " admitted jobs"),
		})
	}
}

// KernelDone implements Probe: each completed kernel becomes one span.
func (r *TraceRecorder) KernelDone(e KernelDone) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.live[e.Job]
	if !ok {
		return
	}
	t.Spans = append(t.Spans, Span{
		Kind: SpanKernel, Name: e.Kernel, Start: e.Start, End: e.At,
		Detail: intDetail("seq ", e.Seq, ""),
	})
}
