package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
)

// RemoteBackend fronts one laxd daemon over HTTP: probes hit GET
// /v1/headroom, submissions POST /v1/jobs without waiting, and a background
// poller follows each accepted job's GET /v1/jobs/{id} record to its
// terminal state. The gateway cannot tell it apart from an in-process node
// — which is the point: the chaos suite exercises failover in-process, and
// the same journal and breakers protect a real fleet.
type RemoteBackend struct {
	name   string
	base   string
	client *http.Client

	mu      sync.Mutex
	stopped bool
	stop    chan struct{}
}

// pollEvery is the wall interval between job-status polls.
const pollEvery = 25 * time.Millisecond

// NewRemoteBackend fronts the laxd daemon at base (e.g.
// "http://127.0.0.1:8080"). name identifies it in journals and metrics.
func NewRemoteBackend(name, base string, client *http.Client) *RemoteBackend {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	return &RemoteBackend{
		name:   name,
		base:   strings.TrimRight(base, "/"),
		client: client,
		stop:   make(chan struct{}),
	}
}

// Name implements Backend.
func (b *RemoteBackend) Name() string { return b.name }

// Close stops every outstanding completion poller.
func (b *RemoteBackend) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.stopped {
		b.stopped = true
		close(b.stop)
	}
}

// get fetches path from the node and decodes a 200 response's JSON into v.
func (b *RemoteBackend) get(path string, v any) error {
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway: %s: GET %s: status %d", b.name, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Probe implements Backend via GET /v1/headroom.
func (b *RemoteBackend) Probe(now sim.Time) (Headroom, error) {
	var hs serve.HeadroomStatus
	if err := b.get("/v1/headroom", &hs); err != nil {
		return Headroom{}, err
	}
	return Headroom{
		Drain:        sim.Time(hs.DrainUs) * sim.Microsecond,
		Unfinished:   hs.Unfinished,
		Capacity:     hs.Devices,
		CapacityFrac: hs.CapacityFrac,
		Draining:     hs.Draining,
	}, nil
}

// Submit implements Backend: POST the job, interpret the verdict, and poll
// the job record to its terminal state in the background. The gateway has
// already sampled the kernel chain for its routing estimate, but laxd
// samples its own — the node's admission decision is what matters, and the
// benchmark name pins the workload distribution.
func (b *RemoteBackend) Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	body, err := json.Marshal(serve.JobRequest{
		Benchmark:  job.Benchmark,
		DeadlineUs: usOf(job.Deadline),
	})
	if err != nil {
		return Verdict{}, err
	}
	req, err := http.NewRequest(http.MethodPost, b.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return Verdict{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if job.TraceID != "" {
		// Propagate the gateway-minted trace ID so the node's spans stitch
		// with ours; the parent span ID is derived from the gateway job ID.
		req.Header.Set("traceparent", obs.FormatTraceparent(job.TraceID, obs.SpanIDFrom(0x6c617867, uint64(job.ID))))
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return Verdict{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Verdict{}, err
	}
	var st serve.JobStatus
	switch resp.StatusCode {
	case http.StatusAccepted:
		if err := json.Unmarshal(raw, &st); err != nil {
			return Verdict{}, err
		}
		go b.follow(st.ID, done)
		return Verdict{Accepted: true, RemoteID: st.ID}, nil
	case http.StatusTooManyRequests:
		if err := json.Unmarshal(raw, &st); err != nil {
			return Verdict{}, err
		}
		return Verdict{Accepted: false, Retry: sim.Time(st.RetryAfterUs) * sim.Microsecond}, nil
	default:
		// 503 (drain, backpressure) and everything else: the node did not
		// take the job; the gateway may re-dispatch it.
		return Verdict{}, fmt.Errorf("gateway: %s: submit status %d: %s", b.name, resp.StatusCode, raw)
	}
}

// JobTrace implements TraceSource via GET /v1/jobs/{id}/trace on the node.
func (b *RemoteBackend) JobTrace(remoteID int64, traceID string) (obs.WireTrace, bool) {
	var doc obs.TraceDoc
	if b.get(fmt.Sprintf("/v1/jobs/%d/trace", remoteID), &doc) != nil || traceID != "" && doc.Trace.TraceID != traceID {
		return obs.WireTrace{}, false
	}
	return doc.Trace, true
}

// follow polls one accepted job's record until it turns terminal, then
// fires done. If the node dies, the poll errors forever and done never
// fires — exactly the lost completion the gateway's failover recovers.
func (b *RemoteBackend) follow(remoteID int64, done func(Outcome)) {
	path := fmt.Sprintf("/v1/jobs/%d", remoteID)
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
		}
		var st serve.JobStatus
		if b.get(path, &st) != nil {
			continue
		}
		switch st.State {
		case "done":
			done(Outcome{
				Terminal: verify.FleetDone,
				Met:      st.MetDeadline,
				FellBack: st.FellBack,
				Latency:  sim.Time(st.LatencyUs) * sim.Microsecond,
				Cause:    st.MissCause,
			})
			return
		case "cancelled", "rejected", "dropped":
			// The last two should not happen for an accepted job; treat them
			// as cancelled so the journal still closes the entry.
			done(Outcome{Terminal: verify.FleetCancelled, Cause: st.MissCause})
			return
		}
	}
}
