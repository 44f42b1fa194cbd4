package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// Reject reasons, as carried in every non-2xx submission response's JSON
// body. Load generators and the gateway tier key their reject-breakdown
// accounting off these strings, so they are part of the API surface.
const (
	// ReasonAdmission is an Algorithm 1 rejection: the live queue state
	// cannot meet the job's deadline (HTTP 429).
	ReasonAdmission = "admission"

	// ReasonClientLimit is the per-client in-flight cap (HTTP 429).
	ReasonClientLimit = "client-limit"

	// ReasonBackpressure is a full accept queue (HTTP 503).
	ReasonBackpressure = "backpressure"

	// ReasonDrain is a server refusing new work during graceful shutdown
	// (HTTP 503).
	ReasonDrain = "drain"

	// ReasonShed is a gateway-tier criticality shed: the shrunken fleet's
	// predicted wait exceeds what the job's class tolerates (HTTP 429).
	ReasonShed = "shed"

	// ReasonUnhealthy is a gateway with no healthy backend to dispatch to
	// (HTTP 503).
	ReasonUnhealthy = "unhealthy"
)

// rejectBody is the uniform JSON payload of every rejected submission:
// machine-readable reason, human-readable error, and a retry hint that
// matches the Retry-After header. Every reject is machine-retryable.
type rejectBody struct {
	Error        string `json:"error"`
	Reason       string `json:"reason"`
	RetryAfterUs int64  `json:"retry_after_us"`
}

// WriteReject renders the uniform rejection response: the Retry-After header
// in (ceiled) seconds plus a JSON body carrying the same hint in simulated
// microseconds and the machine-readable reason. retry hints below one
// microsecond are floored to 1s — "try again soon" — so every reject is
// honestly retryable.
func WriteReject(w http.ResponseWriter, code int, reason, msg string, retry sim.Time) {
	if retry < sim.Microsecond {
		retry = sim.Second
	}
	secs := int64(retry / sim.Second)
	if retry%sim.Second != 0 {
		secs++
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	WriteJSON(w, code, rejectBody{Error: msg, Reason: reason, RetryAfterUs: usOf(retry)})
}

// WriteJSON renders v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError renders the uniform {"error": msg} body.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// JobRequest is the part of the POST /v1/jobs body laxd and laxgw share; each
// daemon embeds it in its own request type.
type JobRequest struct {
	// Benchmark names one of the Table 4 workloads.
	Benchmark string `json:"benchmark"`

	// DeadlineUs optionally overrides the benchmark's relative deadline
	// (microseconds); zero or negative keeps the benchmark's own.
	DeadlineUs int64 `json:"deadline_us,omitempty"`
}

// MaxDeadlineUs is the largest deadline_us a submission may carry: above it
// the µs→ns conversion, or the gateway's 16× critical-class shedding
// tolerance on top of it, overflows sim.Time.
const MaxDeadlineUs = int64(sim.Forever) / 1000 / 16

// DecodeJob reads a POST /v1/jobs body into body — the daemon's request type,
// of which req is the embedded JobRequest — and resolves the benchmark and
// the relative deadline. On bad input it writes the 400 and reports false.
func DecodeJob(w http.ResponseWriter, r *http.Request, body any, req *JobRequest) (*workload.Benchmark, sim.Time, bool) {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(body); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, 0, false
	}
	bench, err := workload.FindBenchmark(req.Benchmark)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return nil, 0, false
	}
	if req.DeadlineUs > MaxDeadlineUs {
		WriteError(w, http.StatusBadRequest, "deadline_us exceeds "+strconv.FormatInt(MaxDeadlineUs, 10))
		return nil, 0, false
	}
	deadline := bench.Deadline
	if req.DeadlineUs > 0 {
		deadline = sim.Time(req.DeadlineUs) * sim.Microsecond
	}
	return bench, deadline, true
}

// JobHandler serves a GET keyed by the {id} path segment: 400 when it is not
// a job ID, 404 when lookup does not know the job, otherwise lookup's value
// as JSON.
func JobHandler[T any](lookup func(id int64) (T, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad job id")
			return
		}
		v, ok := lookup(id)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown job")
			return
		}
		WriteJSON(w, http.StatusOK, v)
	}
}

// maxTraceListing caps GET /v1/traces?n=: a node's default trace ring retains
// no more finished traces than this, and on the gateway every listed trace
// costs one fetch from a backend.
const maxTraceListing = 256

// TraceListingSize parses GET /v1/traces' ?n= (default 20, clamped to 256),
// writing the 400 when it is not a positive integer.
func TraceListingSize(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return 20, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 1 {
		WriteError(w, http.StatusBadRequest, "bad n")
		return 0, false
	}
	return min(n, maxTraceListing), true
}

// MetricsHandler serves reg in the Prometheus text exposition format.
func MetricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	}
}
