package viz

import (
	"bytes"
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// traceRun produces a real trace from a small simulation.
func traceRun(t *testing.T, admit func(*cp.JobRun) bool) []obs.TraceEvent {
	t.Helper()
	desc := &gpu.KernelDesc{Name: "k", NumWGs: 2, ThreadsPerWG: 64,
		BaseWGTime: 50 * sim.Microsecond, InstPerThread: 1}
	set := &workload.JobSet{Benchmark: "syn"}
	for i := 0; i < 5; i++ {
		set.Jobs = append(set.Jobs, &workload.Job{
			ID: i, Benchmark: "syn",
			Arrival:  sim.Time(i) * 30 * sim.Microsecond,
			Deadline: 400 * sim.Microsecond,
			Kernels:  []*gpu.KernelDesc{desc, desc},
		})
	}
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	pol := sched.NewRR()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
	sys.SetProbe(tr)
	sys.Run()
	events, err := ParseEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestParseEventsRoundTrip(t *testing.T) {
	events := traceRun(t, nil)
	if len(events) == 0 {
		t.Fatal("no events parsed")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"arrive", "ready", "kernel_start", "kernel_done", "finish"} {
		if !kinds[want] {
			t.Errorf("missing %q events", want)
		}
	}
}

func TestParseEventsErrors(t *testing.T) {
	if _, err := ParseEvents(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	events, err := ParseEvents(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Fatal("blank lines should parse to nothing")
	}
}

func TestRenderTimeline(t *testing.T) {
	events := traceRun(t, nil)
	var out bytes.Buffer
	if err := RenderTimeline(&out, events, Options{Width: 60}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Header, legend, blank, 5 job rows, blank, summary.
	jobRows := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "j") {
			jobRows++
		}
	}
	if jobRows != 5 {
		t.Fatalf("%d job rows, want 5:\n%s", jobRows, s)
	}
	if !strings.Contains(s, "5 met, 0 missed, 0 rejected, 0 cancelled") {
		t.Fatalf("summary wrong:\n%s", s)
	}
	// Every job row must contain running glyphs and a completion marker.
	for _, l := range lines {
		if !strings.HasPrefix(l, "j") {
			continue
		}
		if !strings.ContainsRune(l, glyphRunning) && !strings.ContainsRune(l, glyphMet) {
			t.Fatalf("job row with no execution: %q", l)
		}
		if !strings.ContainsRune(l, glyphMet) {
			t.Fatalf("job row missing met marker: %q", l)
		}
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	var out bytes.Buffer
	if err := RenderTimeline(&out, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "empty trace") {
		t.Fatal("empty trace not reported")
	}
}

func TestRenderTimelineMaxJobs(t *testing.T) {
	events := traceRun(t, nil)
	var out bytes.Buffer
	if err := RenderTimeline(&out, events, Options{Width: 40, MaxJobs: 2}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "3 more jobs not shown") {
		t.Fatalf("row cap not applied:\n%s", s)
	}
}

func TestRenderTimelineRejectAndCancel(t *testing.T) {
	// Synthesize events directly to cover reject/cancel/missed glyphs.
	events := []obs.TraceEvent{
		{At: 0, Kind: "arrive", JobID: 0, Deadline: 100},
		{At: 0, Kind: "reject", JobID: 0},
		{At: 10, Kind: "arrive", JobID: 1, Deadline: 500},
		{At: 20, Kind: "kernel_start", JobID: 1, Kernel: "k"},
		{At: 300, Kind: "cancel", JobID: 1},
		{At: 10, Kind: "arrive", JobID: 2, Deadline: 50},
		{At: 20, Kind: "kernel_start", JobID: 2, Kernel: "k"},
		{At: 400, Kind: "kernel_done", JobID: 2, Kernel: "k"},
		{At: 400, Kind: "finish", JobID: 2, Met: false},
	}
	var out bytes.Buffer
	if err := RenderTimeline(&out, events, Options{Width: 50}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "0 met, 1 missed, 1 rejected, 1 cancelled") {
		t.Fatalf("summary wrong:\n%s", s)
	}
	if !strings.ContainsRune(s, glyphReject) || !strings.ContainsRune(s, glyphCancel) ||
		!strings.ContainsRune(s, glyphMissed) {
		t.Fatalf("terminal glyphs missing:\n%s", s)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline not empty")
	}
	s := Sparkline([]float64{0, 0.5, 1})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline length %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("sparkline scaling wrong: %q", s)
	}
	// Constant input: all-minimum glyphs, no divide-by-zero.
	c := []rune(Sparkline([]float64{5, 5, 5}))
	if len(c) != 3 || c[0] != '▁' {
		t.Fatalf("constant sparkline wrong: %q", string(c))
	}
}
