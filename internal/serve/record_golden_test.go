package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// recordMix is the record script's submission mix, cycled by index: chains
// that finish, deadlines Algorithm 1 refuses once the device is loaded, one
// it always refuses, and an explicit WGList.
var recordMix = []string{
	`{"benchmark":"LSTM","deadline_us":20000}`,
	`{"benchmark":"STEM","deadline_us":1000}`,
	`{"benchmark":"GMM","deadline_us":6000}`,
	`{"benchmark":"LSTM","deadline_us":7000}`,
	`{"benchmark":"CUCKOO","deadline_us":1500}`,
	`{"benchmark":"STEM","deadline_us":120}`,
	`{"benchmark":"GMM","deadline_us":1}`,
	`{"benchmark":"STEM","deadline_us":20000,"kernels":[{"kernel":"STEMKernel","count":3}]}`,
}

// recordScript configures one run of runRecordScript.
type recordScript struct {
	faults       string
	records      int      // the record table's cap
	maxPerClient int      // the per-client in-flight cap
	jobs         int      // submissions
	gap          sim.Time // clock step between submission slots
	drops        []int    // submissions made with the driver held: 503
	wait         int      // the submission made with ?wait=1
	reads        []int    // read every record after these submissions
}

// recordLine is one line of the script's output: a response to a request
// the script made, or one event the SSE stream carried.
type recordLine struct {
	At    sim.Time        `json:"at"`
	Req   string          `json:"req,omitempty"`
	Code  int             `json:"code,omitempty"`
	Retry string          `json:"retry_after,omitempty"`
	Body  json.RawMessage `json:"body,omitempty"`
	Event json.RawMessage `json:"event,omitempty"`
}

// runRecordScript drives one LAX Server on a manual clock through its HTTP
// handler: submissions from recordMix from three clients, every fifth with
// a propagated traceparent, bursts of three every seventh slot, a few made
// while the driver is held (dropped with 503) and one waiting on ?wait=1.
// Unrecovered faults cancel some jobs and leave hung ones running for good,
// so the table runs over its cap with running records while older terminal
// ones are evicted. Every response, every SSE event, a read of every record
// at each reads point and after a forced drain, and the laxd_ metrics are
// written to out. It returns how many events of each kind the stream carried,
// with the misses, drops, evictions and over-the-cap reads beside them.
func runRecordScript(t *testing.T, sc recordScript, out io.Writer) map[string]int {
	t.Helper()
	clock := NewManualClock()
	srv, err := newServer(Options{
		Scheduler: "LAX", Name: "node-a", Seed: 3, AcceptQueue: 1,
		MaxPerClient: sc.maxPerClient, DrainGrace: time.Millisecond, Faults: sc.faults,
	}, clock, sc.records)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	h := srv.Handler()
	events, cancel := srv.broker.subscribe()
	defer cancel()
	enc := json.NewEncoder(out)
	states := map[string]int{}
	emit := func(l recordLine) {
		l.At = clock.Now()
		var ev struct {
			Event string
			Met   bool `json:"met_deadline"`
		}
		switch {
		case l.Event != nil && json.Unmarshal(l.Event, &ev) == nil:
			states[ev.Event]++
			if ev.Event == "done" && !ev.Met {
				states["missed"]++
			}
		case l.Code == http.StatusServiceUnavailable:
			states["dropped"]++
		}
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		for {
			select {
			case ev, open := <-events:
				if !open {
					return // the drain closed the stream
				}
				emit(recordLine{Event: ev})
			default:
				return
			}
		}
	}
	serve := func(req *http.Request) recordLine {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return recordLine{
			Req:   req.Method + " " + req.URL.RequestURI(),
			Code:  rec.Code,
			Retry: rec.Header().Get("Retry-After"),
			Body:  bytes.TrimSpace(rec.Body.Bytes()),
		}
	}
	post := func(i int, wait bool) *http.Request {
		url := "/v1/jobs"
		if wait {
			url += "?wait=1"
		}
		req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(recordMix[i%len(recordMix)]))
		req.RemoteAddr = fmt.Sprintf("10.0.0.%d:%d", i%3, 40000+i)
		if i%5 == 2 {
			req.Header.Set("traceparent", fmt.Sprintf("00-%s-%s-01", obs.TraceIDFrom(77, uint64(i)), obs.SpanIDFrom(77, uint64(i))))
		}
		return req
	}
	// records is how many IDs the server has handed out.
	records := func() int { return int(srv.cSubmitted.Value()) }
	readAll := func() {
		held := 0
		for id := 0; id < records()+2; id++ {
			l := serve(httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), nil))
			if l.Code == http.StatusOK {
				held++
			}
			emit(l)
		}
		if held > sc.records {
			states["over the cap"]++
		}
	}
	// held runs fn with the driver held: every submission inside it finds
	// the one-caller accept queue full.
	held := func(fn func()) {
		if !srv.host.Call(fn) {
			t.Fatal("driver refused the test's own call")
		}
	}

	i := 0
	for slot := 0; i < sc.jobs; slot++ {
		clock.Set(sim.Time(slot) * sc.gap)
		held(func() {}) // run what fell due, so its events come first
		flush()
		burst := 1
		if slot%7 == 6 {
			burst = 3
		}
		for k := 0; k < burst && i < sc.jobs; k, i = k+1, i+1 {
			switch {
			case contains(sc.drops, i):
				held(func() { emit(serve(post(i, false))) })
			case i == sc.wait:
				id := int64(srv.cSubmitted.Value())
				reply := make(chan recordLine, 1)
				go func(req *http.Request) { reply <- serve(req) }(post(i, true))
				// Wait for the reply or the verdict, then for the verdict's
				// call to return (taking the driver here could find the
				// accept queue full): the waiter's events are in before the
				// clock moves on.
				var l recordLine
				for replied := false; !replied; time.Sleep(100 * time.Microsecond) {
					select {
					case l = <-reply:
						replied = true
					default:
						st, ok := srv.records.get(id)
						replied = ok && st.State != "submitted" && srv.host.callers.Load() == 0
					}
				}
				flush()
				for step := 0; ; step++ {
					if st, _ := srv.records.get(id); st.State != "admitted" {
						break
					}
					if step == 1000 {
						t.Fatalf("waited job %d never finished", id)
					}
					clock.Advance(sc.gap)
					held(func() {})
					flush()
				}
				if l.Req == "" {
					l = <-reply
				}
				emit(l)
			default:
				emit(serve(post(i, false)))
			}
			flush()
		}
		if len(sc.reads) > 0 && i >= sc.reads[0] {
			sc.reads = sc.reads[1:]
			readAll()
		}
	}
	clock.Advance(sim.Second)
	held(func() {})
	flush()
	readAll()
	for _, id := range []int{2, 7, records() - 1} {
		// Only the status: a trace's body is TestNodeTraceGolden's.
		l := serve(httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%d/trace", id), nil))
		l.Body = nil
		emit(l)
	}

	// Forced drain: the hung jobs fall back to the CPU.
	ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	flush()
	readAll()
	for id := 0; id < records(); id++ {
		if _, ok := srv.records.get(int64(id)); !ok {
			states["evicted"]++
		}
	}
	var metrics bytes.Buffer
	srv.reg.WritePrometheus(&metrics)
	for _, line := range strings.SplitAfter(metrics.String(), "\n") {
		if strings.HasPrefix(line, "laxd_") {
			io.WriteString(out, line)
		}
	}
	return states
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// TestRecordStatusGolden pins everything laxd answers about a job from its
// record — GET /v1/jobs/{id}, the SSE events, the submit responses and the
// laxd_ metrics — across admitted, met, missed, cancelled, rejected (429
// with retry_after_us), dropped (503), evicted-past-the-cap and
// over-the-cap-while-running jobs, before and after a forced drain. The
// small run is stored readable; the one that cycles the table many times
// over as its sha256.
func TestRecordStatusGolden(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		var out bytes.Buffer
		states := runRecordScript(t, recordScript{
			faults: "hang=0.03,abort=0.05,slow=0.3x8,recover=off", records: 4, maxPerClient: 4,
			jobs: 40, gap: 700 * sim.Microsecond, drops: []int{9, 26}, wait: 15, reads: []int{12, 24, 33},
		}, &out)
		requireRecordStates(t, states)
		if states["over the cap"] == 0 {
			t.Fatal("no read found running records holding the table over its cap")
		}
		compareTraceGolden(t, "record_status_small.golden.json", out.Bytes())
	})
	t.Run("past-the-cap", func(t *testing.T) {
		h := sha256.New()
		states := runRecordScript(t, recordScript{
			faults: "abort=0.02,slow=0.1x6,recover=off", records: 1500, maxPerClient: 64,
			jobs: 5000, gap: 900 * sim.Microsecond, drops: []int{100, 2222, 4321}, wait: 3001, reads: []int{1200, 3100},
		}, h)
		requireRecordStates(t, states)
		compareTraceGolden(t, "record_status_past_cap.golden.sha256", fmt.Appendf(nil, "%x\n", h.Sum(nil)))
	})
}

// requireRecordStates fails the script if it lost one of the paths it pins.
func requireRecordStates(t *testing.T, got map[string]int) {
	t.Helper()
	for _, k := range []string{"admitted", "done", "missed", "rejected", "cancelled", "dropped", "evicted"} {
		if got[k] == 0 {
			t.Fatalf("record states %v: no %s job; the script lost its teeth", got, k)
		}
	}
}
