package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
)

// TestRecordWideValuesRoundTrip keeps records whose numbers do not fit a
// 32-bit field — a deadline, a latency and a retry hint of 2³² µs or more,
// values of exactly 2³²−1 µs and negative ones — and reads them through
// GET /v1/jobs/{id}, laxd's own handler over the table. Every body must
// carry the exact values, and read byte-identical after every older
// neighbour has been evicted and its page reopened for newer records.
func TestRecordWideValuesRoundTrip(t *testing.T) {
	const maxKept, older = 3 * pageRows, 2 * pageRows
	tbl := newRecordTable(maxKept)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", JobHandler(tbl.get))
	get := func(id int64) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), nil))
		return rec.Code, rec.Body.String()
	}
	var next int64
	neighbour := func() {
		tbl.add(next, "STEM", 2000, obs.TraceIDFrom(3, uint64(next)), "10.0.0.1")
		tbl.finish(next, func(js *JobStatus) { js.State, js.Admitted, js.MetDeadline, js.LatencyUs = "done", true, true, 900 })
		tbl.settle(next)
		next++
	}
	for next < older {
		neighbour()
	}

	cases := []struct {
		deadlineUs int64
		fn         func(*JobStatus)
		want       []string
	}{
		{1<<32 + 11, func(js *JobStatus) {
			js.State, js.Admitted, js.LatencyUs = "done", true, 1<<32+7
			js.MissCause = metrics.MissContended.String()
		}, []string{`"deadline_us":4294967307`, `"latency_us":4294967303`, `"met_deadline":false`}},
		{1<<32 - 1, func(js *JobStatus) {
			js.State, js.Admitted, js.MetDeadline, js.FellBack, js.LatencyUs = "done", true, true, true, 1<<32-1
		}, []string{`"deadline_us":4294967295`, `"latency_us":4294967295`, `"fell_back":true`}},
		{7000, func(js *JobStatus) {
			js.State, js.Reason, js.RetryAfterUs = "rejected", ReasonAdmission, 1<<33+3
			js.MissCause = metrics.MissRejected.String()
		}, []string{`"deadline_us":7000`, `"retry_after_us":8589934595`, `"reason":"admission"`}},
		{-3, func(js *JobStatus) {
			js.State, js.LatencyUs, js.RetryAfterUs = "cancelled", -1, -2
		}, []string{`"deadline_us":-3`, `"latency_us":-1`, `"retry_after_us":-2`}},
	}
	var wide []int64
	for _, c := range cases {
		id := next
		next++
		tbl.add(id, "LSTM", c.deadlineUs, obs.TraceIDFrom(5, uint64(id)), "10.0.0.2")
		tbl.update(id, func(js *JobStatus) { js.State = "admitted" })
		tbl.finish(id, c.fn)
		tbl.settle(id)
		wide = append(wide, id)
	}
	var before []string
	for i, id := range wide {
		code, body := get(id)
		if code != http.StatusOK {
			t.Fatalf("GET job %d: %d %s", id, code, body)
		}
		for _, want := range cases[i].want {
			if !strings.Contains(body, want) {
				t.Errorf("job %d reads %s, want %s in it", id, body, want)
			}
		}
		before = append(before, body)
	}

	for n := 0; ; n++ {
		if code, _ := get(older - 1); code == http.StatusNotFound {
			break
		}
		if n > 2*maxKept {
			t.Fatal("the older neighbours were never evicted")
		}
		neighbour()
	}
	for i, id := range wide {
		if _, body := get(id); body != before[i] {
			t.Errorf("job %d reads differently once its neighbours are evicted:\nbefore %s\n after %s", id, before[i], body)
		}
	}
}
