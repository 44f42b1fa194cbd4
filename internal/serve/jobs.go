package serve

import (
	"sync"
	"time"

	"laxgpu/internal/sim"
)

// JobStatus is a snapshot of one submitted job, as served on
// GET /v1/jobs/{id} and on the event stream.
type JobStatus struct {
	// ID is the server-wide job identifier.
	ID int64 `json:"id"`

	// Benchmark names the workload the job belongs to.
	Benchmark string `json:"benchmark"`

	// Device is the index of the GPU the router placed the job on.
	Device int `json:"device"`

	// State is the job's pipeline state: "admitted" until a terminal
	// transition, then "done", "cancelled" or "rejected".
	State string `json:"state"`

	// Admitted reports the Algorithm 1 verdict.
	Admitted bool `json:"admitted"`

	// MetDeadline reports whether a finished job completed by its deadline.
	MetDeadline bool `json:"met_deadline"`

	// FellBack reports that the job completed on the CPU fallback path
	// (recovery or forced drain), not the GPU.
	FellBack bool `json:"fell_back"`

	// DeadlineUs is the job's relative deadline in microseconds.
	DeadlineUs int64 `json:"deadline_us"`

	// LatencyUs is arrival-to-finish in simulated microseconds (finished
	// jobs only).
	LatencyUs int64 `json:"latency_us,omitempty"`

	// RetryAfterUs is the predicted queue-drain time handed to rejected
	// jobs, in simulated microseconds.
	RetryAfterUs int64 `json:"retry_after_us,omitempty"`

	// Reason is the machine-readable reject reason (the Reason* constants)
	// for jobs that never ran; empty for accepted jobs.
	Reason string `json:"reason,omitempty"`

	// TraceID is the job's W3C trace ID: adopted from the submitter's
	// traceparent header when present, minted otherwise. The full timeline
	// is served on GET /v1/jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`

	// MissCause is the dominant-cause verdict for jobs that missed their
	// deadline (the metrics.ClassifyMiss taxonomy); empty while running and
	// for jobs that met it.
	MissCause string `json:"miss_cause,omitempty"`
}

// record is the server-side state behind a JobStatus. Mutable fields are
// guarded by the owning recordTable's mutex.
type record struct {
	status    JobStatus
	client    string
	submitted time.Time
	done      chan struct{} // closed at the first terminal transition
	terminal  bool
}

// maxRecords bounds a server's job-status registry.
const maxRecords = 65536

// recordTable is the bounded registry of submitted jobs. Past max the oldest
// terminal record is evicted — long-running servers keep memory flat and
// clients are expected to read outcomes promptly (or listen on the event
// stream). A record still running is never evicted, as in the gateway's
// journal: its status stays addressable until it has an outcome to lose.
type recordTable struct {
	mu    sync.Mutex
	max   int
	byID  map[int64]*record
	order []int64 // exactly the keys of byID, in submission order
}

func newRecordTable(max int) *recordTable {
	return &recordTable{max: max, byID: make(map[int64]*record)}
}

// add registers a record, evicting the oldest terminal records beyond the
// cap.
func (t *recordTable) add(r *record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byID[r.status.ID] = r
	t.order = append(t.order, r.status.ID)
	for len(t.order) > t.max {
		i := 0
		for i < len(t.order) && !t.byID[t.order[i]].terminal {
			i++
		}
		if i == len(t.order) {
			break // every record is still running: the table runs over its cap
		}
		delete(t.byID, t.order[i])
		if i == 0 {
			t.order = t.order[1:] // the usual case, O(1)
		} else {
			t.order = append(t.order[:i], t.order[i+1:]...)
		}
	}
}

// get returns a snapshot of the record's status.
func (t *recordTable) get(id int64) (JobStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.byID[id]
	if !ok {
		return JobStatus{}, false
	}
	return r.status, true
}

// update mutates a record's status under the table lock and reports whether
// this call made it terminal (closing the record's done channel exactly
// once).
func (t *recordTable) update(r *record, fn func(*JobStatus), terminal bool) (JobStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(&r.status)
	first := false
	if terminal && !r.terminal {
		r.terminal = true
		first = true
		close(r.done)
	}
	return r.status, first
}

func usOf(t sim.Time) int64 { return int64(t / sim.Microsecond) }
