package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"laxgpu/internal/obs"
)

func getTrace(t *testing.T, url string) (obs.TraceDoc, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc obs.TraceDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
	}
	return doc, resp.StatusCode
}

func TestTraceEndpointPropagatesTraceparent(t *testing.T) {
	_, hs := startServer(t, Options{Speed: 1, Name: "node-a"})

	wantID := strings.Repeat("ab", 16)
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs?wait=1",
		strings.NewReader(`{"benchmark":"LSTM","deadline_us":1000000}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+wantID+"-"+strings.Repeat("12", 8)+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != wantID {
		t.Fatalf("trace_id = %q, want propagated %q", st.TraceID, wantID)
	}

	doc, code := getTrace(t, fmt.Sprintf("%s/v1/jobs/%d/trace", hs.URL, st.ID))
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	tr := doc.Trace
	if tr.TraceID != wantID || tr.Node != "node-a" || tr.State != "done" {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Job != fmt.Sprintf("%d", st.ID) {
		t.Errorf("trace job = %q, want server-wide id %d", tr.Job, st.ID)
	}

	// The phase spans partition [arrival, finish]: their durations sum to
	// the job's latency exactly.
	var sum float64
	phases := 0
	for _, s := range tr.Spans {
		if s.Kind == obs.SpanPhase {
			sum += s.EndUs - s.StartUs
			phases++
		}
	}
	if phases < 3 {
		t.Fatalf("got %d phase spans, want parse/queue/exec: %+v", phases, tr.Spans)
	}
	if diff := sum - tr.LatencyUs; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("phase sum %v != latency %v", sum, tr.LatencyUs)
	}
	if len(doc.Attribution.Phases) != phases {
		t.Errorf("attribution phases = %+v", doc.Attribution.Phases)
	}
	if doc.Attribution.Cause != "" && st.MetDeadline {
		t.Errorf("met job attributed cause %q", doc.Attribution.Cause)
	}

	// /v1/traces lists the finished trace.
	resp2, err := http.Get(hs.URL + "/v1/traces?n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var docs []obs.TraceDoc
	if err := json.NewDecoder(resp2.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].Trace.TraceID != wantID {
		t.Errorf("/v1/traces = %+v, want the one finished trace", docs)
	}
}

func TestTraceEndpointRejectedJobAttribution(t *testing.T) {
	srv, hs := startServer(t, Options{Speed: 1})
	// Warm the profiling table first — a cold table estimates zero hold
	// time and admits everything — then a 1µs deadline cannot pass
	// Algorithm 1; the verdict and its attribution must both read
	// "rejected".
	if r, _ := postJob(t, hs.URL+"/v1/jobs?wait=1", `{"benchmark":"STEM","deadline_us":1000000}`); r.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d", r.StatusCode)
	}
	resp, st := postJob(t, hs.URL+"/v1/jobs", `{"benchmark":"STEM","deadline_us":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if st.MissCause != "rejected" {
		t.Fatalf("miss_cause = %q, want rejected (status %+v)", st.MissCause, st)
	}
	doc, code := getTrace(t, fmt.Sprintf("%s/v1/jobs/%d/trace", hs.URL, st.ID))
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	if doc.Trace.State != "rejected" || doc.Attribution.Cause != "rejected" {
		t.Errorf("trace state %q cause %q, want rejected/rejected",
			doc.Trace.State, doc.Attribution.Cause)
	}
	if got := srv.cMissCause["rejected"].Value(); got != 1 {
		t.Errorf("laxd_miss_cause_total{cause=rejected} = %d, want 1", got)
	}
}

func TestTraceDisabled(t *testing.T) {
	_, hs := startServer(t, Options{Speed: 1, TraceDepth: -1})
	resp, st := postJob(t, hs.URL+"/v1/jobs?wait=1", `{"benchmark":"LSTM","deadline_us":1000000}`)
	resp.Body.Close()
	_, code := getTrace(t, fmt.Sprintf("%s/v1/jobs/%d/trace", hs.URL, st.ID))
	if code != http.StatusNotFound {
		t.Fatalf("trace-disabled GET: status %d, want 404", code)
	}
}
