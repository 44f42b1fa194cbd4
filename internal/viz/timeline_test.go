package viz

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// traceRun records the traces of a small simulation.
func traceRun(t *testing.T) []obs.JobTrace {
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
	rec := obs.NewTraceRecorder(len(set.Jobs))
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, sched.NewRR())
	sys.SetProbe(rec)
	sys.Run()
	return rec.All()
}

func TestRenderTimeline(t *testing.T) {
	var out bytes.Buffer
	RenderTimeline(&out, traceRun(t))
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
		if !strings.ContainsRune(l, glyphRunning) {
			t.Fatalf("job row with no execution: %q", l)
		}
		if !strings.ContainsRune(l, glyphMet) {
			t.Fatalf("job row missing met marker: %q", l)
		}
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	var out bytes.Buffer
	RenderTimeline(&out, nil)
	if !strings.Contains(out.String(), "empty trace") {
		t.Fatal("empty trace not reported")
	}
}

func TestRenderTimelineMaxJobs(t *testing.T) {
	one := traceRun(t)[0]
	traces := make([]obs.JobTrace, maxRows+3)
	for i := range traces {
		traces[i] = one
		traces[i].Job = i
	}
	var out bytes.Buffer
	RenderTimeline(&out, traces)
	s := out.String()
	if !strings.Contains(s, "3 more jobs not shown") || strings.Contains(s, fmt.Sprintf("j%-4d ", maxRows)) {
		t.Fatalf("row cap not applied:\n%s", s)
	}
}

func TestRenderTimelineRejectAndCancel(t *testing.T) {
	// Hand-built traces cover the reject, cancel, missed and running rows. The
	// cancelled job's kernel never completed, so it has no kernel span.
	kernel := obs.Span{Kind: obs.SpanKernel, Name: "k", Start: 20, End: 400}
	traces := []obs.JobTrace{
		{Job: 0, Arrival: 0, Deadline: 100, Finish: 0, State: "rejected"},
		{Job: 1, Arrival: 10, Deadline: 500, Finish: 300, State: "cancelled"},
		{Job: 2, Arrival: 10, Deadline: 50, Finish: 400, State: "done", Spans: []obs.Span{kernel}},
		{Job: 3, Arrival: 30, Deadline: 450, State: "running"},
	}
	var out bytes.Buffer
	RenderTimeline(&out, traces)
	s := out.String()
	if !strings.Contains(s, "0 met, 2 missed, 1 rejected, 1 cancelled") {
		t.Fatalf("summary wrong:\n%s", s)
	}
	if !strings.ContainsRune(s, glyphReject) || !strings.ContainsRune(s, glyphCancel) ||
		!strings.ContainsRune(s, glyphMissed) {
		t.Fatalf("terminal glyphs missing:\n%s", s)
	}
	rows := strings.Split(s, "\n")[3:7]
	if strings.ContainsRune(rows[1], glyphRunning) {
		t.Errorf("cancelled job without a completed kernel drawn as running: %q", rows[1])
	}
	if !strings.HasSuffix(rows[3], string(glyphWaiting)) {
		t.Errorf("running job's row does not reach the horizon: %q", rows[3])
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
