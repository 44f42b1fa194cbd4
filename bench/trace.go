package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span names. A span's name is an index so the buffer holds no pointers and
// the garbage collector never scans it.
type spanName uint8

const (
	spSweep spanName = iota
	spRun
	spScenarioParse
	spScenarioGenerate
	spGatewaySubmit
	spTickProbes
	spGatewayCheck
	spBackendSubmit
	spBackendProbe
	spClientPost
	spClientTrace
	spGatewayHandler
	spNodeHandler
	spNodeSubmit
	spRemoteSubmit
	spRemotePoll
	spRemoteOther
	spProbe
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spSweep:            "laxgpu.Session.Sweep",
	spRun:              "laxgpu.Run",
	spScenarioParse:    "scenario.Parse",
	spScenarioGenerate: "scenario.Generate",
	spGatewaySubmit:    "gateway.Submit",
	spTickProbes:       "gateway.TickProbes",
	spGatewayCheck:     "gateway.Check",
	spBackendSubmit:    "gateway.Backend.Submit",
	spBackendProbe:     "gateway.Backend.Probe",
	spClientPost:       "client POST /v1/jobs?wait=1",
	spClientTrace:      "client GET /v1/jobs/{id}/trace",
	spGatewayHandler:   "laxgw handler",
	spNodeHandler:      "laxd handler",
	spNodeSubmit:       "laxd handler POST /v1/jobs",
	spRemoteSubmit:     "RemoteBackend POST /v1/jobs",
	spRemotePoll:       "RemoteBackend GET /v1/jobs/{id}",
	spRemoteOther:      "RemoteBackend other",
	spProbe:            "layer probe",
}

// span is one timed call into a layer: name, start, end, the span that
// caused it, and the job it belongs to (-1 when none). Times are nanoseconds
// since the tracer started.
type span struct {
	start, end int64
	job        int64
	parent     int32
	name       spanName
	lane       uint8 // Chrome-trace thread: one per concurrent caller
}

// tracer records spans into a buffer allocated once, before the timed
// region, outside the Go heap (see allocSpans). A nil tracer is the untraced run: every method is a no-op, and the
// untraced workloads additionally skip installing the wrappers that would
// call them.
type tracer struct {
	t0      time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: allocSpans(capacity)}
}

// begin opens a span and returns its index (-1 when untraced or full).
func (t *tracer) begin(name spanName, lane uint8, parent int32, job int64) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{start: int64(time.Since(t.t0)), end: -1, job: job, parent: parent, name: name, lane: lane}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
}

// setJob stamps a job ID learned only after the span began (an HTTP client
// reads it from the reply).
func (t *tracer) setJob(i int32, job int64) {
	if t != nil && i >= 0 {
		t.spans[i].job = job
	}
}

// recorded returns every span begun so far; one still open has end -1.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := min(t.n.Load(), int64(len(t.spans)))
	return t.spans[:n]
}

// durationsUs returns the duration of every closed span of one name, in
// recording order.
func (t *tracer) durationsUs(name spanName) samples {
	var out samples
	for _, s := range t.recorded() {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// selfUs returns, for every closed span of one name, its self time: its
// duration minus the part its direct children cover.
func (t *tracer) selfUs(name spanName) samples {
	spans := t.recorded()
	child := make(map[int32]int64)
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out samples
	for i, s := range spans {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start-child[int32(i)])/1e3)
		}
	}
	return out
}

// maxTraceEvents bounds the written file: a fleet replay records over half
// a million spans, and the young and the aged fleet are the parts worth
// opening in a viewer.
const maxTraceEvents = 200_000

// write emits the spans as Chrome trace-event JSON ("X" complete events,
// microsecond timestamps). Past maxTraceEvents the first and last halves are
// kept and the gap is recorded in the metadata.
func (t *tracer) write(path, workload string) error {
	spans := t.recorded()
	// A fresh checkout has no out directory yet.
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	skipFrom, skipTo := len(spans), len(spans)
	if len(spans) > maxTraceEvents {
		skipFrom, skipTo = maxTraceEvents/2, len(spans)-maxTraceEvents/2
	}
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q,"spans":%d,"omitted":%d,"dropped":%d},"traceEvents":[`,
		workload, len(spans), skipTo-skipFrom, t.dropped.Load())
	first := true
	for i, s := range spans {
		if (i >= skipFrom && i < skipTo) || s.end < 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"job":%d}}`,
			spanNames[s.name], s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.job)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
