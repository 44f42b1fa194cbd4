package gateway

import (
	"net/http"
	"strconv"

	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
)

// JobStatus is the gateway's per-job API record.
type JobStatus struct {
	ID           int64    `json:"id"`
	Benchmark    string   `json:"benchmark"`
	Node         string   `json:"node,omitempty"`
	State        string   `json:"state"`
	Class        string   `json:"class"`
	Accepted     bool     `json:"accepted"`
	MetDeadline  bool     `json:"met_deadline"`
	FellBack     bool     `json:"fell_back"`
	DeadlineUs   int64    `json:"deadline_us"`
	LatencyUs    int64    `json:"latency_us,omitempty"`
	Reason       string   `json:"reason,omitempty"`
	RetryAfterUs int64    `json:"retry_after_us,omitempty"`
	Dispatches   []string `json:"dispatches,omitempty"`
	TraceID      string   `json:"trace_id,omitempty"`
	MissCause    string   `json:"miss_cause,omitempty"`
}

func (e *entry) status() JobStatus {
	state := e.terminal
	if state == "" {
		state = "admitted"
	}
	node := ""
	if n := len(e.dispatches); n > 0 {
		node = e.dispatches[n-1]
	}
	return JobStatus{
		ID:           e.job.ID,
		Benchmark:    e.job.Benchmark,
		Node:         node,
		State:        state,
		Class:        e.job.Class.String(),
		Accepted:     e.accepted,
		MetDeadline:  e.met,
		FellBack:     e.fellBack,
		DeadlineUs:   usOf(e.job.Deadline),
		LatencyUs:    e.latencyUs,
		Reason:       e.reason,
		RetryAfterUs: e.retryUs,
		Dispatches:   append([]string(nil), e.dispatches...),
		TraceID:      e.job.TraceID,
		MissCause:    e.cause,
	}
}

// Status reads one journaled job.
func (gw *Gateway) Status(id int64) (JobStatus, bool) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	e := gw.journal.entries[id]
	if e == nil {
		return JobStatus{}, false
	}
	return e.status(), true
}

// Done returns the journaled job's completion channel (closed at its first
// terminal transition), or nil for unknown IDs.
func (gw *Gateway) Done(id int64) <-chan struct{} {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if e := gw.journal.entries[id]; e != nil {
		return e.done
	}
	return nil
}

// NodeStatus is one row of the GET /v1/fleet report.
type NodeStatus struct {
	Name       string `json:"name"`
	Breaker    string `json:"breaker"`
	DrainUs    int64  `json:"drain_us"`
	Unfinished int    `json:"unfinished"`

	// Phase is the scale-down lifecycle: "" (active), "draining" or
	// "retired".
	Phase string `json:"phase,omitempty"`
}

// FleetStatus is the GET /v1/fleet payload: per-node health plus the
// journal's accounting and the live no-lost-jobs verdict.
type FleetStatus struct {
	Nodes      []NodeStatus `json:"nodes"`
	Submitted  int64        `json:"submitted"`
	Accepted   int64        `json:"accepted"`
	Inflight   int          `json:"inflight"`
	Terminal   int          `json:"terminal"`
	Duplicates int64        `json:"duplicates"`
	Violations int          `json:"violations"`
}

// Fleet snapshots the fleet's health and the journal's invariant status.
func (gw *Gateway) Fleet() FleetStatus {
	// The no-lost-jobs rule is a quiescence invariant: an accepted job that
	// is simply still running is in flight, not lost. The live report
	// checks only closed entries; Inflight counts the open ones, so at
	// quiescence (inflight 0) this is the full checker verdict.
	closed := make([]verify.FleetJob, 0)
	for _, fj := range gw.FleetJobs() {
		if fj.Accepted && fj.Terminal == "" {
			continue
		}
		closed = append(closed, fj)
	}
	violations := len(verify.CheckFleet(gw.clock.Now(), closed))
	gw.mu.Lock()
	defer gw.mu.Unlock()
	fs := FleetStatus{
		Submitted:  gw.cSubmitted.Value(),
		Accepted:   gw.cAccepted.Value(),
		Inflight:   gw.inflight,
		Terminal:   gw.journal.terminals,
		Duplicates: gw.cDuplicates.Value(),
		Violations: violations,
	}
	for _, n := range gw.table.nodes {
		phase := ""
		switch {
		case n.retired:
			phase = "retired"
		case n.draining:
			phase = "draining"
		}
		fs.Nodes = append(fs.Nodes, NodeStatus{
			Name:       n.be.Name(),
			Breaker:    n.breaker.State().String(),
			DrainUs:    usOf(n.headroom.Drain),
			Unfinished: n.headroom.Unfinished,
			Phase:      phase,
		})
	}
	return fs
}

// gatewayHalf snapshots the journal's side of one job's trace — its status
// and the gateway's own routing/failover events — and names where the node's
// side lives: the backend holding the live dispatch (nil when none does, or
// it records no traces) and the job's node-local ID there.
func (gw *Gateway) gatewayHalf(id int64) (wire obs.WireTrace, src TraceSource, remoteID int64, ok bool) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	e := gw.journal.entries[id]
	if e == nil {
		return obs.WireTrace{}, nil, 0, false
	}
	if g := e.backend; g >= 0 && g < len(gw.table.nodes) {
		src, _ = gw.table.nodes[g].be.(TraceSource)
	}
	st := e.status()
	return obs.WireTrace{
		TraceID:   st.TraceID,
		Job:       strconv.FormatInt(id, 10),
		Benchmark: st.Benchmark,
		Node:      "laxgw",
		State:     st.State,
		Met:       st.MetDeadline,
		FellBack:  st.FellBack,
		SlackUs:   float64(e.job.Deadline) / float64(sim.Microsecond),
		LatencyUs: float64(st.LatencyUs),
		Spans:     append([]obs.WireSpan(nil), e.spans...),
	}, src, e.remoteID, true
}

// StitchedTrace assembles one job's cross-process trace: the gateway's own
// routing/failover events plus the timeline recorded by whichever node
// finally ran the job, fetched from the backend (never under mu). The two
// halves share the gateway-minted trace ID; node spans carry the node's
// name, gateway spans carry "laxgw".
func (gw *Gateway) StitchedTrace(id int64) (obs.TraceDoc, bool) {
	wire, src, remoteID, ok := gw.gatewayHalf(id)
	if !ok {
		return obs.TraceDoc{}, false
	}
	if src != nil {
		if nt, ok := src.JobTrace(remoteID, wire.TraceID); ok {
			wire.Spans = append(wire.Spans, nt.Spans...)
			// The node's latency is float-exact; the journal's is
			// truncated to whole microseconds. Prefer the exact one so
			// the phase partition sums to the latency precisely.
			if nt.LatencyUs > 0 {
				wire.LatencyUs = nt.LatencyUs
			}
		}
	}
	return obs.TraceDoc{Trace: wire, Attribution: obs.Attribute(wire)}, true
}

// submitRequest is the POST /v1/jobs body the gateway accepts.
type submitRequest struct {
	serve.JobRequest
	Criticality string `json:"criticality,omitempty"`
}

// Handler returns the gateway's HTTP frontend.
func (gw *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", gw.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", serve.JobHandler(gw.Status))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", serve.JobHandler(gw.StitchedTrace))
	mux.HandleFunc("GET /v1/traces", gw.handleTraces)
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, gw.Fleet())
	})
	mux.HandleFunc("GET /metrics", serve.MetricsHandler(gw.reg))
	mux.HandleFunc("GET /healthz", gw.handleHealthz)
	return mux
}

func (gw *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if gw.draining.Load() {
		serve.WriteReject(w, http.StatusServiceUnavailable, serve.ReasonDrain, "gateway is draining", 0)
		return
	}
	var req submitRequest
	bench, deadline, ok := serve.DecodeJob(w, r, &req, &req.JobRequest)
	if !ok {
		return
	}
	class, err := ParseClass(req.Criticality)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	id, v, reason := gw.Submit(bench, deadline, class)
	switch reason {
	case "":
	case serve.ReasonUnhealthy:
		serve.WriteReject(w, http.StatusServiceUnavailable, reason, "no healthy node", v.Retry)
		return
	default: // shed or node admission
		serve.WriteReject(w, http.StatusTooManyRequests, reason, "fleet cannot meet the deadline", v.Retry)
		return
	}

	code := http.StatusAccepted
	if r.URL.Query().Get("wait") != "" {
		if ch := gw.Done(id); ch != nil {
			select {
			case <-ch:
			case <-r.Context().Done():
				return
			}
		}
		code = http.StatusOK
	}
	st, _ := gw.Status(id)
	serve.WriteJSON(w, code, st)
}

// handleTraces serves GET /v1/traces?n=K: stitched traces of the newest K
// terminal jobs, newest first (default 20).
func (gw *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	if n, ok := serve.TraceListingSize(w, r); ok {
		serve.WriteJSON(w, http.StatusOK, gw.recentTraces(n))
	}
}

// recentTraces stitches the traces of the newest n terminal jobs, newest
// first.
func (gw *Gateway) recentTraces(n int) []obs.TraceDoc {
	ids := gw.newestTerminal(n)
	docs := make([]obs.TraceDoc, 0, len(ids))
	for _, id := range ids {
		if doc, ok := gw.StitchedTrace(id); ok {
			docs = append(docs, doc)
		}
	}
	return docs
}

func (gw *Gateway) newestTerminal(n int) []int64 {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.journal.newestTerminal(n)
}

// Perfetto exports the fleet-event log (breaker transitions, failover
// re-dispatches, CPU fallbacks, scale events) and the stitched traces of the
// 64 most recent terminal jobs, oldest first, as one Chrome trace-event
// document for ui.perfetto.dev — laxgw -perfetto writes it at shutdown.
func (gw *Gateway) Perfetto() *obs.Perfetto {
	p := obs.NewPerfetto()
	p.AddFleetEvents(gw.FleetEvents())
	docs := gw.recentTraces(64)
	for i := len(docs) - 1; i >= 0; i-- {
		p.AddWireTrace(docs[i].Trace)
	}
	return p
}

func (gw *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if gw.draining.Load() {
		status = "draining"
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"nodes":   len(gw.Backends()),
		"healthy": gw.ActiveNodes(),
	})
}
