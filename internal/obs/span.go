package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
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
	LatencyUs float64    `json:"latency_us"` // finish − arrival; 0 until terminal
	Spans     []WireSpan `json:"spans"`
}

// TraceDoc is the document served by the trace endpoints and written by
// laxsim -trace and laxtrace -o: the (possibly stitched) timeline plus its
// slack attribution.
type TraceDoc struct {
	Trace       WireTrace   `json:"trace"`
	Attribution Attribution `json:"attribution"`
}

// WriteTraceDocs writes docs as one indented JSON array, the trace file
// laxsim -trace and laxtrace -o write and laxtrace -file reads.
func WriteTraceDocs(w io.Writer, docs []TraceDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docs)
}

// ParseTraceDocs reads a JSON array of trace docs, or a single doc.
func ParseTraceDocs(raw []byte) ([]TraceDoc, error) {
	var docs []TraceDoc
	if err := json.Unmarshal(raw, &docs); err == nil {
		return docs, nil
	}
	var one TraceDoc
	if err := json.Unmarshal(raw, &one); err != nil {
		return nil, fmt.Errorf("not a trace doc or array of trace docs: %w", err)
	}
	return []TraceDoc{one}, nil
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
		Spans:     make([]WireSpan, 0, len(t.Spans)),
	}
	if t.State != stateNames[stateRunning] {
		w.LatencyUs = us(t.Finish - t.Arrival)
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
// job ID. Probe callbacks arrive from whoever holds the node; GetByID, Recent
// and Assign may be called concurrently from HTTP handlers, so every method
// locks.
//
// Each job is one traceRow of scalars plus a row-owned buffer of compact span
// records; Span values and their Detail strings are built only when a trace
// is read. The row the ring evicts is reused by the next arrival, and a long
// span buffer it held waits in a short spare list for the next long chain,
// so in steady state a recorded job allocates nothing; maxFreeRows,
// maxKeptSpans, maxSpares and the spares' ageing keep that reuse from
// retaining a peak.
//
// A nil *TraceRecorder is never attached (obs.Multi drops nils), so runs
// without tracing keep the plain nil-probe hot path and allocate nothing.
type TraceRecorder struct {
	mu       sync.Mutex
	depth    int
	live     map[int]*traceRow
	done     []*traceRow // ring, insertion order; done[next] is oldest
	next     int
	free     []*traceRow // evicted rows awaiting reuse, at most maxFreeRows
	inflight int         // admitted, not yet terminal — the "behind N jobs" count

	spares   []spareSpans // span buffers awaiting an arrival, at most maxSpares
	arrivals int          // arrivals recorded: the clock spares age by
}

// spareSpans is a span buffer no row holds, kept for an arrival that needs
// its capacity, and the arrival count when it was kept.
type spareSpans struct {
	spans []spanRec
	kept  int
}

const (
	// maxFreeRows bounds the evicted rows kept for reuse; the rest of a burst
	// goes to the collector. Steady state needs one (each finish evicts a
	// row, each arrival takes one); a longer list would only hold on to the
	// largest burst of live jobs ever seen.
	maxFreeRows = 8
	// maxKeptSpans is the largest span buffer a recycled row keeps: room for
	// a chain of a dozen kernels. A longer chain's buffer goes to the spare
	// list instead, or every row would end up holding the capacity of the
	// longest chain it served.
	maxKeptSpans = 16
	// maxSpares bounds the spare list; when it is full, a newly evicted long
	// buffer replaces the longest-kept spare. An arrival takes the spare that
	// fits it best: one with room for the whole chain but at most twice that
	// (any spare of maxKeptSpans or less fits a short chain), so a row in the
	// ring never holds much more than its chain.
	maxSpares = 8
	// spareGenerations is how many ring generations (depth arrivals each) a
	// spare may wait unused before it is dropped, so a one-off giant chain's
	// buffer is not kept. Long chains can be rarer than one per generation:
	// a fleet node sees about 1.5 LSTM arrivals per 256 jobs, and with a
	// one-generation limit two of three LSTM arrivals found no spare left.
	spareGenerations = 8
	// firstSpans is the capacity a fresh span buffer starts with when the
	// arrival does not say how long the job's chain is.
	firstSpans = 8
	// jobSpans is how many records a job has besides one per kernel: the
	// admit event, the parse, queue and exec phases and the fallback event.
	jobSpans = 5
)

// traceRow is one job's trace as stored: scalars and compact span records,
// rendered into a JobTrace on read.
type traceRow struct {
	traceID   TraceID
	benchmark string
	job       int

	arrival, deadline, finish sim.Time
	ready, firstDispatch      sim.Time

	// The Algorithm 1 terms of the job's admission verdict (cp.System asks
	// the policy once per job), valid when the admit record has admitTerms.
	queueDelay, hold, budget sim.Time

	state                                traceState
	met, fellBack, hasReady, hasDispatch bool

	spans []spanRec
}

type traceState uint8

const (
	stateRunning traceState = iota
	stateDone
	stateRejected
	stateCancelled
)

var stateNames = [...]string{"running", "done", "rejected", "cancelled"}

// spanRec is one recorded span. n carries the kind's one integer: the
// kernel's sequence number, the queue phase's behind count, or the admit
// record's admitAccepted|admitTerms bits. name is set on kernel records only
// and is the kernel descriptor's own string, never a copy.
type spanRec struct {
	start, end sim.Time
	n          int64
	name       string
	kind       spanKind
}

type spanKind uint8

const (
	recParse    spanKind = iota // phase: arrival → ready (or → finish, never ready)
	recQueue                    // phase: ready → first dispatch
	recExec                     // phase: first dispatch → finish
	recCPU                      // phase: ready → finish, never dispatched
	recAdmit                    // event: the admission verdict
	recFellBack                 // event: the job moved to the host CPU
	recKernel                   // kernel: one execution
)

// Admit record bits.
const (
	admitAccepted = 1 << iota
	admitTerms
)

// spanForms is each record kind's fixed Span fields; queue, admit and kernel
// records add a Detail (and a kernel its name) when rendered.
var spanForms = [...]struct{ kind, name, detail string }{
	recParse:    {SpanPhase, PhaseParse, ""},
	recQueue:    {SpanPhase, PhaseQueue, ""},
	recExec:     {SpanPhase, PhaseExec, ""},
	recCPU:      {SpanPhase, PhaseFallback, "completed without ever dispatching to the GPU"},
	recAdmit:    {SpanEvent, EventAdmit, ""},
	recFellBack: {SpanEvent, EventFallback, "remaining kernels moved to the host CPU"},
	recKernel:   {SpanKernel, "", ""},
}

// NewTraceRecorder returns a recorder retaining up to depth finished traces
// (depth <= 0 selects the default of 256).
func NewTraceRecorder(depth int) *TraceRecorder {
	if depth <= 0 {
		depth = 256
	}
	return &TraceRecorder{
		depth: depth,
		live:  make(map[int]*traceRow),
	}
}

// Assign binds an externally propagated trace ID (from a traceparent
// header) to a job's trace, live or finished.
func (r *TraceRecorder) Assign(job int, traceID TraceID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.lookupLocked(job); t != nil {
		t.traceID = traceID
	}
}

// GetByID returns a copy of the trace bound (via Assign) to traceID, the
// ID's 32 hex digits; false for any other string.
func (r *TraceRecorder) GetByID(traceID string) (JobTrace, bool) {
	id, ok := ParseTraceID(traceID)
	if !ok {
		return JobTrace{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.live {
		if t.traceID == id {
			return t.render(), true
		}
	}
	for _, t := range r.done {
		if t.traceID == id {
			return t.render(), true
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
		out = append(out, r.done[idx].render())
	}
	return out
}

// All returns copies of every retained trace, live and finished, in job-ID
// order. A job still live when a run ends (one a hang stranded with recovery
// off) is included in state "running".
func (r *TraceRecorder) All() []JobTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobTrace, 0, len(r.live)+len(r.done))
	for _, t := range r.live {
		out = append(out, t.render())
	}
	for _, t := range r.done {
		out = append(out, t.render())
	}
	slices.SortFunc(out, func(a, b JobTrace) int { return cmp.Compare(a.Job, b.Job) })
	return out
}

func (r *TraceRecorder) lookupLocked(job int) *traceRow {
	if t, ok := r.live[job]; ok {
		return t
	}
	for _, t := range r.done {
		if t.job == job {
			return t
		}
	}
	return nil
}

// render builds the JobTrace a reader sees, with every Span and Detail.
func (t *traceRow) render() JobTrace {
	jt := JobTrace{
		TraceID: t.traceID.String(), Job: t.job, Benchmark: t.benchmark,
		Arrival: t.arrival, Deadline: t.deadline, Finish: t.finish,
		State: stateNames[t.state], Met: t.met, FellBack: t.fellBack,
	}
	if len(t.spans) == 0 {
		return jt
	}
	jt.Spans = make([]Span, len(t.spans))
	for i, s := range t.spans {
		f := spanForms[s.kind]
		sp := Span{Kind: f.kind, Name: f.name, Start: s.start, End: s.end, Detail: f.detail}
		switch s.kind {
		case recQueue:
			sp.Detail = intDetail("behind ", int(s.n), " admitted jobs")
		case recAdmit:
			sp.Detail = "reject"
			if s.n&admitAccepted != 0 {
				sp.Detail = "accept"
			}
			if s.n&admitTerms != 0 {
				sp.Detail = admissionDetail(sp.Detail, t.queueDelay, t.hold, t.budget)
			}
		case recKernel:
			sp.Name, sp.Detail = s.name, intDetail("seq ", int(s.n), "")
		}
		jt.Spans[i] = sp
	}
	return jt
}

func (t *traceRow) add(kind spanKind, start, end sim.Time, n int64, name string) {
	t.spans = append(t.spans, spanRec{start: start, end: end, n: n, name: name, kind: kind})
}

// arriveLocked starts the job's row: its live row again if the ID is already
// live, else a recycled row, else a new one. The span buffer is sized once,
// from the chain length the arrival carries, so a long chain's records never
// regrow it: the row's own buffer when it is big enough, else the best-fitting
// spare, else a new one of exactly the size needed.
func (r *TraceRecorder) arriveLocked(e JobEvent) {
	r.arrivals++
	r.ageSparesLocked()
	t := r.live[e.Job]
	if t == nil {
		if n := len(r.free); n > 0 {
			t, r.free[n-1] = r.free[n-1], nil
			r.free = r.free[:n-1]
		} else {
			t = new(traceRow)
		}
		r.live[e.Job] = t
	}
	need := firstSpans
	if e.Kernels > 0 {
		need = e.Kernels + jobSpans
	}
	spans := t.spans[:0]
	if cap(spans) < need {
		spans = r.swapSpareLocked(spans, need)
	}
	*t = traceRow{
		job: e.Job, benchmark: e.Benchmark,
		arrival: e.At, deadline: e.Deadline, spans: spans,
	}
}

// swapSpareLocked returns an empty buffer with room for need records in
// exchange for own, the arriving row's too-short buffer: the best-fitting
// spare, whose slot own takes (a short arrival whose row lost its buffer
// takes it back from there), or a new buffer when no spare fits.
func (r *TraceRecorder) swapSpareLocked(own []spanRec, need int) []spanRec {
	best := -1
	for i, s := range r.spares {
		if c := cap(s.spans); c >= need && (c <= 2*need || c <= maxKeptSpans) &&
			(best < 0 || c < cap(r.spares[best].spans)) {
			best = i
		}
	}
	if best < 0 {
		return make([]spanRec, 0, need)
	}
	spans := r.spares[best].spans
	if cap(own) > 0 {
		r.spares[best] = spareSpans{spans: own, kept: r.arrivals}
	} else {
		r.dropSpareLocked(best)
	}
	return spans
}

// keepSpareLocked adds an evicted row's buffer to the spare list, emptied,
// in place of the longest-kept spare when the list is full.
func (r *TraceRecorder) keepSpareLocked(spans []spanRec) {
	s := spareSpans{spans: spans[:0], kept: r.arrivals}
	if len(r.spares) < maxSpares {
		r.spares = append(r.spares, s)
		return
	}
	oldest := 0
	for i := range r.spares {
		if r.spares[i].kept < r.spares[oldest].kept {
			oldest = i
		}
	}
	r.spares[oldest] = s
}

// ageSparesLocked drops the spares that spareGenerations ring generations of
// arrivals have left unused.
func (r *TraceRecorder) ageSparesLocked() {
	for i := len(r.spares) - 1; i >= 0; i-- {
		if r.arrivals-r.spares[i].kept > spareGenerations*r.depth {
			r.dropSpareLocked(i)
		}
	}
}

// dropSpareLocked removes spare i from the unordered spare list.
func (r *TraceRecorder) dropSpareLocked(i int) {
	last := len(r.spares) - 1
	r.spares[i] = r.spares[last]
	r.spares[last] = spareSpans{}
	r.spares = r.spares[:last]
}

// finishLocked moves a live row into the done ring and recycles the row it
// evicts; a long span buffer it held goes to the spare list.
func (r *TraceRecorder) finishLocked(t *traceRow) {
	delete(r.live, t.job)
	if len(r.done) < r.depth {
		r.done = append(r.done, t)
		r.next = len(r.done) % r.depth
		return
	}
	old := r.done[r.next]
	r.done[r.next] = t
	r.next = (r.next + 1) % r.depth
	if cap(old.spans) > maxKeptSpans {
		r.keepSpareLocked(old.spans)
		old.spans = nil
	}
	if len(r.free) < maxFreeRows {
		r.free = append(r.free, old)
	}
}

// Job implements Probe.
func (r *TraceRecorder) Job(e JobEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.Kind == JobArrive {
		r.arriveLocked(e)
		return
	}
	t, ok := r.live[e.Job]
	if !ok {
		return
	}
	switch e.Kind {
	case JobReject:
		t.state, t.finish = stateRejected, e.At
		r.finishLocked(t)
	case JobReady:
		t.ready, t.hasReady = e.At, true
		t.add(recParse, t.arrival, e.At, 0, "")
	case JobFallback:
		t.fellBack = true
		t.add(recFellBack, e.At, e.At, 0, "")
	case JobFinish, JobCancel:
		r.inflight-- // finished and cancelled jobs were both admitted
		t.finish = e.At
		if e.Kind == JobCancel {
			t.state = stateCancelled
		} else {
			t.state, t.met = stateDone, e.Met
		}
		// Close the phase partition so it covers [arrival, finish] exactly:
		//
		//	dispatched:       parse | queue | exec
		//	never dispatched: parse | fallback   (CPU-only completion)
		//	never ready:      parse              (e.g. cancelled while host-queued)
		switch {
		case t.hasDispatch:
			t.add(recExec, t.firstDispatch, t.finish, 0, "")
		case t.hasReady:
			t.add(recCPU, t.ready, t.finish, 0, "")
		default:
			t.add(recParse, t.arrival, t.finish, 0, "")
		}
		r.finishLocked(t)
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
	var bits int64
	if e.Accepted {
		bits |= admitAccepted
		r.inflight++
	}
	if e.HasTerms {
		bits |= admitTerms
		t.queueDelay, t.hold, t.budget = e.QueueDelay, e.HoldTime, e.Deadline
	}
	t.add(recAdmit, e.At, e.At, bits, "")
}

// admissionDetail renders the Algorithm 1 terms in whole microseconds,
// appended into one buffer — one allocation — rather than formatted.
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
// and records where exec begins.
func (r *TraceRecorder) KernelStart(e KernelStart) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.live[e.Job]
	if !ok || t.hasDispatch {
		return
	}
	t.firstDispatch, t.hasDispatch = e.At, true
	start := t.arrival
	if t.hasReady {
		start = t.ready
	}
	behind := r.inflight - 1
	if behind < 0 {
		behind = 0
	}
	t.add(recQueue, start, e.At, int64(behind), "")
}

// KernelDone implements Probe: each completed kernel becomes one span.
func (r *TraceRecorder) KernelDone(e KernelDone) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.live[e.Job]; ok {
		t.add(recKernel, e.Start, e.At, int64(e.Seq), e.Kernel)
	}
}
