package obs

import (
	"fmt"
	"strings"
	"testing"

	"laxgpu/internal/sim"
)

const usT = sim.Microsecond

// feedJob drives one synthetic job lifecycle through the recorder:
// arrive → admit → ready → first dispatch → kernel done → finish.
func feedJob(r *TraceRecorder, id int, arrive, ready, dispatch, finish sim.Time, met bool) {
	r.Job(JobEvent{At: arrive, Kind: JobArrive, Job: id, Benchmark: "LSTM", Deadline: arrive + 1000*usT})
	r.Admission(AdmissionDecision{At: arrive, Job: id, Accepted: true, HasTerms: true,
		QueueDelay: 10 * usT, HoldTime: 50 * usT, Deadline: 1000 * usT})
	r.Job(JobEvent{At: ready, Kind: JobReady, Job: id})
	r.KernelStart(KernelStart{At: dispatch, Job: id, Seq: 0, Kernel: "gemm"})
	r.KernelDone(KernelDone{At: finish, Job: id, Seq: 0, Kernel: "gemm", Start: dispatch})
	r.Job(JobEvent{At: finish, Kind: JobFinish, Job: id, Met: met})
}

func TestTraceRecorderPhasePartition(t *testing.T) {
	r := NewTraceRecorder(8)
	feedJob(r, 0, 0, 5*usT, 30*usT, 130*usT, false)

	tr, ok := r.Get(0)
	if !ok {
		t.Fatal("trace not recorded")
	}
	if tr.State != "done" || tr.Met {
		t.Fatalf("state=%q met=%v, want done/false", tr.State, tr.Met)
	}

	// The phase spans must partition [arrival, finish] contiguously.
	var phases []Span
	for _, s := range tr.Spans {
		if s.Kind == SpanPhase {
			phases = append(phases, s)
		}
	}
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3 (parse/queue/exec): %+v", len(phases), phases)
	}
	wantNames := []string{PhaseParse, PhaseQueue, PhaseExec}
	var sum sim.Time
	cursor := tr.Arrival
	for i, p := range phases {
		if p.Name != wantNames[i] {
			t.Errorf("phase %d = %q, want %q", i, p.Name, wantNames[i])
		}
		if p.Start != cursor {
			t.Errorf("phase %q starts at %v, want contiguous %v", p.Name, p.Start, cursor)
		}
		cursor = p.End
		sum += p.End - p.Start
	}
	if sum != tr.Finish-tr.Arrival {
		t.Errorf("phase durations sum to %v, want latency %v", sum, tr.Finish-tr.Arrival)
	}

	// Wire conversion keeps the sum property in relative microseconds.
	w := tr.Wire("node-0")
	var wsum float64
	for _, s := range w.Spans {
		if s.Kind == SpanPhase {
			wsum += s.EndUs - s.StartUs
		}
		if s.Node != "node-0" {
			t.Errorf("wire span %q node = %q", s.Name, s.Node)
		}
	}
	if wsum != w.LatencyUs {
		t.Errorf("wire phase sum %v != latency %v", wsum, w.LatencyUs)
	}
}

func TestTraceRecorderBehindCount(t *testing.T) {
	r := NewTraceRecorder(8)
	// Three jobs admitted before job 2 dispatches; none finished yet.
	for id := 0; id < 3; id++ {
		r.Job(JobEvent{At: 0, Kind: JobArrive, Job: id, Deadline: 1000 * usT})
		r.Admission(AdmissionDecision{At: 0, Job: id, Accepted: true})
		r.Job(JobEvent{At: usT, Kind: JobReady, Job: id})
	}
	r.KernelStart(KernelStart{At: 10 * usT, Job: 2, Seq: 0, Kernel: "k"})
	r.Job(JobEvent{At: 20 * usT, Kind: JobFinish, Job: 2, Met: true})

	tr, _ := r.Get(2)
	var queue *Span
	for i := range tr.Spans {
		if tr.Spans[i].Name == PhaseQueue {
			queue = &tr.Spans[i]
		}
	}
	if queue == nil || !strings.Contains(queue.Detail, "behind 2 admitted jobs") {
		t.Fatalf("queue span detail = %+v, want behind 2 admitted jobs", queue)
	}
}

func TestTraceRecorderRejectAndCancel(t *testing.T) {
	r := NewTraceRecorder(8)
	r.Job(JobEvent{At: 0, Kind: JobArrive, Job: 0, Deadline: 100 * usT})
	r.Admission(AdmissionDecision{At: 0, Job: 0, Accepted: false, HasTerms: true,
		QueueDelay: 500 * usT, HoldTime: 80 * usT, Deadline: 100 * usT})
	r.Job(JobEvent{At: 0, Kind: JobReject, Job: 0})

	tr, ok := r.Get(0)
	if !ok || tr.State != "rejected" {
		t.Fatalf("rejected trace = %+v ok=%v", tr, ok)
	}
	if got := Attribute(tr.Wire("n")); got.Cause != "rejected" {
		t.Errorf("cause = %q, want rejected", got.Cause)
	}

	r.Job(JobEvent{At: 0, Kind: JobArrive, Job: 1, Deadline: 100 * usT})
	r.Admission(AdmissionDecision{At: 0, Job: 1, Accepted: true})
	r.Job(JobEvent{At: 2 * usT, Kind: JobReady, Job: 1})
	r.Job(JobEvent{At: 40 * usT, Kind: JobCancel, Job: 1})
	tr, _ = r.Get(1)
	if tr.State != "cancelled" {
		t.Fatalf("state = %q, want cancelled", tr.State)
	}
	if got := Attribute(tr.Wire("n")); got.Cause != "cancelled" {
		t.Errorf("cause = %q, want cancelled", got.Cause)
	}
}

func TestTraceRecorderRingEviction(t *testing.T) {
	r := NewTraceRecorder(2)
	for id := 0; id < 5; id++ {
		at := sim.Time(id) * 10 * usT
		feedJob(r, id, at, at+usT, at+2*usT, at+5*usT, true)
	}
	if _, ok := r.Get(0); ok {
		t.Error("oldest trace should have been evicted")
	}
	recent := r.Recent(10)
	if len(recent) != 2 {
		t.Fatalf("Recent = %d traces, want 2", len(recent))
	}
	if recent[0].Job != 4 || recent[1].Job != 3 {
		t.Errorf("Recent order = %d,%d, want newest first 4,3", recent[0].Job, recent[1].Job)
	}
}

func TestAttributeVerdicts(t *testing.T) {
	// Build wire traces directly: the verdict must reproduce the
	// metrics.ClassifyMiss decision tree from span data alone.
	base := func() WireTrace {
		return WireTrace{State: "done", SlackUs: 1000, LatencyUs: 1200}
	}

	queued := base()
	queued.Spans = []WireSpan{
		{Kind: SpanPhase, Name: PhaseParse, StartUs: 0, EndUs: 10},
		{Kind: SpanPhase, Name: PhaseQueue, StartUs: 10, EndUs: 710, Detail: "behind 3 admitted jobs"},
		{Kind: SpanPhase, Name: PhaseExec, StartUs: 710, EndUs: 1200},
	}
	if a := Attribute(queued); a.Cause != "queued" ||
		!strings.Contains(a.Detail, "71% of slack") || !strings.Contains(a.Detail, "behind 3") {
		t.Errorf("queued verdict = %+v", Attribute(queued))
	}

	contended := base()
	contended.Spans = []WireSpan{
		{Kind: SpanPhase, Name: PhaseParse, StartUs: 0, EndUs: 10},
		{Kind: SpanPhase, Name: PhaseQueue, StartUs: 10, EndUs: 100},
		{Kind: SpanPhase, Name: PhaseExec, StartUs: 100, EndUs: 1200},
	}
	if a := Attribute(contended); a.Cause != "contended" {
		t.Errorf("contended verdict = %+v", a)
	}

	starved := base()
	starved.Spans = []WireSpan{
		{Kind: SpanPhase, Name: PhaseParse, StartUs: 0, EndUs: 10},
		{Kind: SpanPhase, Name: PhaseQueue, StartUs: 10, EndUs: 1100},
		{Kind: SpanPhase, Name: PhaseExec, StartUs: 1100, EndUs: 1200},
	}
	if a := Attribute(starved); a.Cause != "starved" {
		t.Errorf("starved (late dispatch) verdict = %+v", a)
	}

	faulted := base()
	faulted.FellBack = true
	if a := Attribute(faulted); a.Cause != "faulted" {
		t.Errorf("faulted verdict = %+v", a)
	}

	met := base()
	met.Met = true
	met.Spans = queued.Spans
	a := Attribute(met)
	if a.Cause != "" {
		t.Errorf("met job got cause %q", a.Cause)
	}
	if len(a.Phases) != 3 || a.Phases[1].PctOfSlack != 70 {
		t.Errorf("phase shares = %+v", a.Phases)
	}
}

func TestTraceRecorderFallbackPhases(t *testing.T) {
	r := NewTraceRecorder(4)
	r.Job(JobEvent{At: 0, Kind: JobArrive, Job: 0, Deadline: 100 * usT})
	r.Admission(AdmissionDecision{At: 0, Job: 0, Accepted: true})
	r.Job(JobEvent{At: 2 * usT, Kind: JobReady, Job: 0})
	r.Job(JobEvent{At: 50 * usT, Kind: JobFallback, Job: 0})
	r.Job(JobEvent{At: 400 * usT, Kind: JobFinish, Job: 0, Met: false})

	tr, _ := r.Get(0)
	if !tr.FellBack {
		t.Fatal("FellBack not set")
	}
	var sum sim.Time
	names := map[string]bool{}
	for _, s := range tr.Spans {
		if s.Kind == SpanPhase {
			sum += s.End - s.Start
			names[s.Name] = true
		}
	}
	if !names[PhaseFallback] {
		t.Errorf("expected a %q phase, got %v", PhaseFallback, names)
	}
	if sum != tr.Finish-tr.Arrival {
		t.Errorf("phase sum %v != latency %v", sum, tr.Finish-tr.Arrival)
	}
	if a := Attribute(tr.Wire("n")); a.Cause != "faulted" {
		t.Errorf("cause = %q, want faulted", a.Cause)
	}
}

// TestTraceAndSpanIDsPinned pins the ID strings to the values the
// fmt.Sprintf("%016x") encoding produced: recorded traces, stitched timelines
// and failover reruns are keyed by them, so the encoding may get cheaper but
// never different. Rows include leading-zero words and the gateway's and
// RemoteBackend's own seed mixes.
func TestTraceAndSpanIDsPinned(t *testing.T) {
	for _, c := range []struct {
		seed, id    uint64
		trace, span string
	}{
		{0x0, 0x0, "a706dd2f4d197e6f46b73e79f0c37c00", "40a380c0196203f2"},
		{0x1, 0x0, "08b4fda8c892b50e778b1aa9c29bc868", "0a4964a214514a10"},
		{0x1, 0x1, "e9fd6049d65af21e3ed40b93e7f46d1f", "9ccb777bcdcca303"},
		{0x7, 0x2a, "16062d6c1339e500ebb89f221a9f2d89", "687934905f83c9aa"},
		{0x6c61786776, 0x0, "1736b0bfae2fd643ddfe27d1131f1c4f", "b93607d85a9f72f5"},
		{0x6c61786776, 0x2522b, "497660b90ad0cced55cd923905936f18", "e85a058c010d9e0f"},
		{0x6c61786775, 0x10000, "586f843d6a05e5b3e63658e28b2e6f48", "4c99e8df101e38d0"},
		{0x6c617867, 0x9, "004761664c4072db5df4e43c35da0897", "38bc793c685ec596"},
		{0xffffffffffffffff, 0xffffffffffffffff, "6309143e67a479369581a0c4bbf5af49", "4f6124ff22ba2dea"},
		{0xdeadbeef, 0x10000000000, "4bf78400cf062de0d5da19192eb68b09", "bd586d1bfd7ba852"},
	} {
		if got := TraceIDFrom(c.seed, c.id); got != c.trace {
			t.Errorf("TraceIDFrom(%#x, %#x) = %q, want %q", c.seed, c.id, got, c.trace)
		}
		if got := SpanIDFrom(c.seed, c.id); got != c.span {
			t.Errorf("SpanIDFrom(%#x, %#x) = %q, want %q", c.seed, c.id, got, c.span)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = TraceIDFrom(3, 4) }); n > 1 {
		t.Errorf("TraceIDFrom allocates %v times, want the one string", n)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := TraceIDFrom(7, 42)
	sp := SpanIDFrom(7, 42)
	if len(id) != 32 || len(sp) != 16 {
		t.Fatalf("id lengths: %d %d", len(id), len(sp))
	}
	if id2 := TraceIDFrom(7, 42); id2 != id {
		t.Error("TraceIDFrom not deterministic")
	}
	if TraceIDFrom(7, 43) == id {
		t.Error("distinct jobs share a trace ID")
	}
	h := FormatTraceparent(id, sp)
	gotID, gotSpan, ok := ParseTraceparent(h)
	if !ok || gotID != id || gotSpan != sp {
		t.Fatalf("round trip %q -> %q %q %v", h, gotID, gotSpan, ok)
	}
	for _, bad := range []string{
		"", "00-zz-11-01", "01-" + id + "-" + sp + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + sp + "-01",
		"00-" + id + "-" + strings.Repeat("0", 16) + "-01",
		"00-" + id + "-" + sp,
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent accepted %q", bad)
		}
	}
}

// TestSpanDetailsTextAndAllocs: the per-job span details read exactly as the
// fmt.Sprintf they replaced and cost one allocation (the string) each.
func TestSpanDetailsTextAndAllocs(t *testing.T) {
	for _, n := range []int{0, 7, 1234, 1 << 40, -3} {
		if got, want := intDetail("behind ", n, " admitted jobs"), fmt.Sprintf("behind %d admitted jobs", n); got != want {
			t.Errorf("intDetail = %q, want %q", got, want)
		}
		if got, want := intDetail("seq ", n, ""), fmt.Sprintf("seq %d", n); got != want {
			t.Errorf("intDetail = %q, want %q", got, want)
		}
	}
	for _, terms := range [][3]sim.Time{{0, 0, 0}, {10 * usT, 50 * usT, 1000 * usT}, {1999, 123456789, 3 * sim.Second}, {-1500, 999, 1000}} {
		want := fmt.Sprintf("%s: queue_delay=%dus + hold=%dus vs deadline=%dus",
			"reject", int64(us(terms[0])), int64(us(terms[1])), int64(us(terms[2])))
		if got := admissionDetail("reject", terms[0], terms[1], terms[2]); got != want {
			t.Errorf("admissionDetail = %q, want %q", got, want)
		}
	}
	var sink string
	for name, render := range map[string]func(){
		"admission": func() { sink = admissionDetail("accept", 123456*usT, 7890*usT, 3*sim.Second) },
		"behind":    func() { sink = intDetail("behind ", 1234, " admitted jobs") },
		"seq":       func() { sink = intDetail("seq ", 1234, "") },
	} {
		if allocs := testing.AllocsPerRun(100, render); allocs > 1 {
			t.Errorf("%s detail costs %.0f allocations, want at most 1 (%q)", name, allocs, sink)
		}
	}
}
