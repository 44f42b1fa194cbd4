package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"laxgpu"
	"laxgpu/internal/harness"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/viz"
	"laxgpu/internal/workload"
)

// fixture builds a recorded trace file: one met job and two misses (one
// queued, one faulted).
func fixture(t *testing.T) string {
	t.Helper()
	phases := func(parse, queue, exec float64) []obs.WireSpan {
		return []obs.WireSpan{
			{Kind: obs.SpanPhase, Name: obs.PhaseParse, Node: "node-a", StartUs: 0, EndUs: parse},
			{Kind: obs.SpanPhase, Name: obs.PhaseQueue, Node: "node-a", StartUs: parse, EndUs: parse + queue,
				Detail: "behind 3 admitted jobs"},
			{Kind: obs.SpanPhase, Name: obs.PhaseExec, Node: "node-a", StartUs: parse + queue, EndUs: parse + queue + exec},
		}
	}
	mk := func(job string, met, fellBack bool, slack float64, spans []obs.WireSpan) obs.TraceDoc {
		last := spans[len(spans)-1].EndUs
		tr := obs.WireTrace{
			TraceID: strings.Repeat("ab", 16), Job: job, Benchmark: "LSTM",
			Node: "node-a", State: "done", Met: met, FellBack: fellBack,
			SlackUs: slack, LatencyUs: last, Spans: spans,
		}
		return obs.TraceDoc{Trace: tr, Attribution: obs.Attribute(tr)}
	}
	docs := []obs.TraceDoc{
		mk("1", true, false, 1000, phases(5, 20, 100)),
		mk("2", false, false, 100, phases(5, 71, 40)), // queued: wait > exec
		mk("3", false, true, 100, phases(5, 10, 200)), // faulted: CPU fallback
	}
	path := filepath.Join(t.TempDir(), "traces.json")
	raw, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummarizeFromFile(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-file", fixture(t)}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"3 trace(s): 1 met, 2 missed",
		"queued", "faulted",
		"slack thieves",
		obs.PhaseExec,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
}

func TestWaterfallSingleDoc(t *testing.T) {
	// A one-doc file renders the waterfall directly.
	path := fixture(t)
	raw, _ := os.ReadFile(path)
	var docs []obs.TraceDoc
	if err := json.Unmarshal(raw, &docs); err != nil {
		t.Fatal(err)
	}
	one, _ := json.Marshal(docs[1])
	single := filepath.Join(t.TempDir(), "one.json")
	if err := os.WriteFile(single, one, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-file", single}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"MISS", "====", "slack attribution:",
		"verdict: queued", "behind 3 admitted jobs",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("waterfall missing %q:\n%s", want, got)
		}
	}
}

func TestPerfettoExport(t *testing.T) {
	pf := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	if code := run([]string{"-file", fixture(t), "-perfetto", pf}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	raw, err := os.ReadFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto export is empty")
	}
}

// TestLiveDaemon drives a real laxd in-process: submit one job, then render
// its waterfall over HTTP the way the CI smoke stage does.
func TestLiveDaemon(t *testing.T) {
	srv, err := laxgpu.StartServer(laxgpu.ServerOptions{
		Addr: "127.0.0.1:0", Speed: 1000, Name: "live-node",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	resp, err := http.Post(srv.URL()+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"benchmark":"LSTM","deadline_us":1000000}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st struct {
		ID int64 `json:"id"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}

	var out bytes.Buffer
	if code := run([]string{"-addr", srv.URL(), "-job", fmt.Sprint(st.ID)}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{"live-node", obs.PhaseExec, "slack attribution:"} {
		if !strings.Contains(got, want) {
			t.Errorf("live waterfall missing %q:\n%s", want, got)
		}
	}
}

// hostileDoc holds one span that starts 50µs before the job arrived: with the
// default width its bar would begin at column -120.
const hostileDoc = `{"trace":{"job":"1","state":"done","latency_us":20,` +
	`"spans":[{"kind":"phase","name":"parse","start_us":-50,"end_us":10}]}}`

func TestWaterfallClampsHostileSpan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.json")
	if err := os.WriteFile(path, []byte(hostileDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-file", path}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	// The bar is clamped to the waterfall: it starts at column 0.
	if !strings.Contains(out.String(), "  [=") {
		t.Errorf("span before arrival not clamped to the first column:\n%s", out.String())
	}
}

// TestSimulatedRunFile reads the trace docs of a simulated run, as laxsim
// -trace writes them: one doc per job, and a miss-cause summary.
func TestSimulatedRunFile(t *testing.T) {
	r := harness.NewRunner()
	r.JobCount = 64
	r.Faults = "retire=2@2ms"
	rec := obs.NewTraceRecorder(r.JobCount)
	if _, _, err := r.RunSystem(context.Background(), "LAX", "LSTM", workload.HighRate, rec); err != nil {
		t.Fatal(err)
	}
	traces := rec.All()
	docs := make([]obs.TraceDoc, len(traces))
	for i := range traces {
		wire := traces[i].Wire("sim")
		docs[i] = obs.TraceDoc{Trace: wire, Attribution: obs.Attribute(wire)}
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := writeDocs(path, docs); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-file", path}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	for _, want := range []string{"laxtrace: 64 trace(s)", "miss causes:", "slack thieves"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("simulated-run summary missing %q:\n%s", want, out.String())
		}
	}
}

// FuzzParseAndRender hardens laxtrace and the timeline against arbitrary
// (possibly adversarial) trace files: parse errors are fine, panics are
// not, and every doc parsed must render as a waterfall, in the summary and
// as a timeline row.
func FuzzParseAndRender(f *testing.F) {
	f.Add(hostileDoc)
	f.Add(`[{"trace":{"job":"0","state":"done","met":true,"slack_us":100,"latency_us":50,` +
		`"spans":[{"kind":"kernel","name":"k","start_us":5,"end_us":40}]}}]`)
	f.Add(`{"trace":{"state":"running","latency_us":-1e300,"spans":[{"kind":"event","start_us":1e308,"end_us":1e308}]}}`)
	f.Add(`[{},{},{}]`)
	f.Add("junk")
	f.Add(`[{"trace":{"job":"x","state":"cancelled","slack_us":-3,"spans":[{"kind":"kernel","start_us":9,"end_us":-9}]}}]`)

	f.Fuzz(func(t *testing.T, in string) {
		docs, err := obs.ParseTraceDocs([]byte(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		traces := make([]obs.JobTrace, len(docs))
		for i, d := range docs {
			waterfall(&out, d, 30)
			obs.Attribute(d.Trace)
			traces[i] = jobTrace(d.Trace)
		}
		summarize(&out, docs, 3)
		viz.RenderTimeline(&out, traces)
	})
}

// jobTrace turns a wire trace back into recorder form, anchored at arrival 0.
func jobTrace(w obs.WireTrace) obs.JobTrace {
	ns := func(us float64) sim.Time { return sim.Time(us * 1e3) }
	job, _ := strconv.Atoi(w.Job)
	t := obs.JobTrace{
		Job: job, Benchmark: w.Benchmark, State: w.State, Met: w.Met, FellBack: w.FellBack,
		Deadline: ns(w.SlackUs), Finish: ns(w.LatencyUs),
	}
	for _, s := range w.Spans {
		t.Spans = append(t.Spans, obs.Span{Kind: s.Kind, Name: s.Name, Start: ns(s.StartUs), End: ns(s.EndUs), Detail: s.Detail})
	}
	return t
}
