package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
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

// fourKernelJob drives one job of four kernels through its whole lifecycle:
// arrive, admit with terms, ready, four kernel executions, finish.
func fourKernelJob(r *TraceRecorder, id int, at sim.Time) {
	r.Job(JobEvent{At: at, Kind: JobArrive, Job: id, Benchmark: "LSTM", Deadline: at + 1000*usT})
	r.Admission(AdmissionDecision{At: at, Job: id, Accepted: true, HasTerms: true,
		QueueDelay: 10 * usT, HoldTime: 50 * usT, Deadline: 1000 * usT})
	r.Job(JobEvent{At: at + usT, Kind: JobReady, Job: id})
	for seq := 0; seq < 4; seq++ {
		start := at + sim.Time(2+10*seq)*usT
		r.KernelStart(KernelStart{At: start, Job: id, Seq: seq, Kernel: "gemm"})
		r.KernelDone(KernelDone{At: start + 10*usT, Job: id, Seq: seq, Kernel: "gemm", Start: start})
	}
	r.Job(JobEvent{At: at + 50*usT, Kind: JobFinish, Job: id, Met: true})
}

// TestTraceRecorderSteadyStateAllocs: once the ring is full, recording one
// more job reuses the row the ring evicts and allocates nothing — the spans
// and their details are built only when the trace is read.
// Get returns a copy of the job's trace, or false if it was never recorded
// or already evicted.
func (r *TraceRecorder) Get(job int) (JobTrace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.lookupLocked(job); t != nil {
		return t.render(), true
	}
	return JobTrace{}, false
}

func TestTraceRecorderSteadyStateAllocs(t *testing.T) {
	const depth = 32
	r := NewTraceRecorder(depth)
	id := 0
	for ; id < 2*depth; id++ {
		fourKernelJob(r, id, sim.Time(id)*100*usT)
	}
	allocs := testing.AllocsPerRun(500, func() {
		fourKernelJob(r, id, sim.Time(id)*100*usT)
		id++
	})
	if allocs != 0 {
		t.Errorf("a recorded 4-kernel job past the ring depth costs %v allocations, want 0", allocs)
	}
	if tr, ok := r.Get(id - 1); !ok || len(tr.Spans) != 8 || tr.State != "done" {
		t.Fatalf("last job's trace = %+v, %v; want done with admit, parse, queue, 4 kernels, exec", tr, ok)
	}
}

// BenchmarkTraceRecorderJob is the cost of recording one 4-kernel job on a
// recorder at the default depth whose ring is already full.
func BenchmarkTraceRecorderJob(b *testing.B) {
	r := NewTraceRecorder(0)
	id := 0
	for ; id < 512; id++ {
		fourKernelJob(r, id, sim.Time(id)*100*usT)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fourKernelJob(r, id, sim.Time(id)*100*usT)
		id++
	}
}

// retained counts the rows the recorder holds — live, in the ring and
// waiting for reuse — and the span capacity they and the spare list own.
func retained(r *TraceRecorder) (rows, spans int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, set := range [][]*traceRow{r.done, r.free} {
		for _, t := range set {
			rows++
			spans += cap(t.spans)
		}
	}
	for _, t := range r.live {
		rows++
		spans += cap(t.spans)
	}
	for _, s := range r.spares {
		spans += cap(s.spans)
	}
	return rows, spans
}

// TestTraceRecorderRetainsNoPeak: recycling must not keep the largest burst
// or the longest chain alive. After 1 000 jobs live at once, one 500-kernel
// chain, then ten ring depths of ordinary jobs, the recorder holds at most
// depth + maxFreeRows rows, and they and the spare list at most
// maxKeptSpans span slots per row: the long chain's spare has aged out.
func TestTraceRecorderRetainsNoPeak(t *testing.T) {
	const depth, burst = 8, 1000
	r := NewTraceRecorder(depth)
	at := sim.Time(0)
	for id := 0; id < burst; id++ {
		r.Job(JobEvent{At: at, Kind: JobArrive, Job: id, Deadline: at + sim.Second})
		r.Admission(AdmissionDecision{At: at, Job: id, Accepted: true})
		r.Job(JobEvent{At: at, Kind: JobReady, Job: id})
	}
	for id := 0; id < burst; id++ {
		at += usT
		r.KernelStart(KernelStart{At: at, Job: id, Kernel: "k"})
		r.KernelDone(KernelDone{At: at + usT, Job: id, Kernel: "k", Start: at})
		r.Job(JobEvent{At: at + usT, Kind: JobFinish, Job: id, Met: true})
	}
	if rows, _ := retained(r); rows > depth+maxFreeRows {
		t.Errorf("after a burst of %d live jobs the recorder holds %d rows, want at most %d", burst, rows, depth+maxFreeRows)
	}

	long := burst
	r.Job(JobEvent{At: at, Kind: JobArrive, Job: long, Deadline: at + sim.Second})
	r.Admission(AdmissionDecision{At: at, Job: long, Accepted: true})
	r.Job(JobEvent{At: at, Kind: JobReady, Job: long})
	for seq := 0; seq < 500; seq++ {
		at += usT
		r.KernelStart(KernelStart{At: at, Job: long, Seq: seq, Kernel: "k"})
		r.KernelDone(KernelDone{At: at + usT, Job: long, Seq: seq, Kernel: "k", Start: at})
	}
	r.Job(JobEvent{At: at + usT, Kind: JobFinish, Job: long, Met: true})
	if tr, ok := r.Get(long); !ok || len(tr.Spans) != 504 {
		t.Fatalf("500-kernel trace has %d spans (ok=%v), want 504", len(tr.Spans), ok)
	}

	for id := long + 1; id <= long+10*depth; id++ {
		at += 100 * usT
		fourKernelJob(r, id, at)
	}
	rows, spans := retained(r)
	if maxRows := depth + maxFreeRows; rows > maxRows || spans > maxRows*maxKeptSpans {
		t.Errorf("recorder retains %d rows with %d span slots, want at most %d rows and %d slots",
			rows, spans, maxRows, maxRows*maxKeptSpans)
	}
	if got := r.Recent(0); len(got) != depth || got[0].Job != long+10*depth {
		t.Errorf("ring holds %d traces, newest job %d; want %d, newest %d", len(got), got[0].Job, depth, long+10*depth)
	}
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

// TestRunningTraceWiresZeroLatency: a job still running at 5 ms has no
// finish, so its wired latency is 0 (not 0 − arrival); once it finishes the
// latency is finish − arrival.
func TestRunningTraceWiresZeroLatency(t *testing.T) {
	r := NewTraceRecorder(8)
	at := 5000 * usT
	r.Job(JobEvent{At: at, Kind: JobArrive, Job: 0, Benchmark: "LSTM", Deadline: at + 1000*usT})
	r.Admission(AdmissionDecision{At: at, Job: 0, Accepted: true})
	r.Job(JobEvent{At: at + usT, Kind: JobReady, Job: 0})
	r.KernelStart(KernelStart{At: at + 2*usT, Job: 0, Seq: 0, Kernel: "gemm"})
	tr, ok := r.Get(0)
	if !ok || tr.State != "running" {
		t.Fatalf("trace = %+v ok=%v, want a running trace", tr, ok)
	}
	if w := tr.Wire("n"); w.LatencyUs != 0 {
		t.Fatalf("running trace wires latency_us = %v, want 0", w.LatencyUs)
	}
	r.KernelDone(KernelDone{At: at + 40*usT, Job: 0, Seq: 0, Kernel: "gemm", Start: at + 2*usT})
	r.Job(JobEvent{At: at + 40*usT, Kind: JobFinish, Job: 0, Met: true})
	tr, _ = r.Get(0)
	if w := tr.Wire("n"); w.LatencyUs != 40 {
		t.Fatalf("finished trace wires latency_us = %v, want 40", w.LatencyUs)
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
		if got := TraceIDFrom(c.seed, c.id).String(); got != c.trace {
			t.Errorf("TraceIDFrom(%#x, %#x) = %q, want %q", c.seed, c.id, got, c.trace)
		}
		if got := SpanIDFrom(c.seed, c.id); got != c.span {
			t.Errorf("SpanIDFrom(%#x, %#x) = %q, want %q", c.seed, c.id, got, c.span)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = TraceIDFrom(3, 4) }); n != 0 {
		t.Errorf("TraceIDFrom allocates %v times, want none", n)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := TraceIDFrom(7, 42)
	sp := SpanIDFrom(7, 42)
	hex := id.String()
	if len(hex) != 32 || len(sp) != 16 {
		t.Fatalf("id lengths: %d %d", len(hex), len(sp))
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
		"", "00-zz-11-01", "01-" + hex + "-" + sp + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + sp + "-01",
		"00-" + hex + "-" + strings.Repeat("0", 16) + "-01",
		"00-" + hex + "-" + sp,
		"00-" + strings.ToUpper(hex) + "-" + sp + "-01",
		"00-" + hex + "-" + sp + "-01-",
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent accepted %q", bad)
		}
	}
}

// splitTraceparent is ParseTraceparent as it was before it read fixed
// offsets: split on "-", then check each field. FuzzTraceparent holds the
// fixed-offset parser to it.
func splitTraceparent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || parts[0] != "00" ||
		!isHex(parts[1], 32) || !isHex(parts[2], 16) || !isHex(parts[3], 2) {
		return "", "", false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

// FuzzTraceparent feeds hostile header values to the trace-ID parsers. They
// never panic; they accept exactly what the split-based parser accepted
// (version 00, lower-case hex, non-zero trace and span IDs); and every value
// they accept round-trips through String and FormatTraceparent.
func FuzzTraceparent(f *testing.F) {
	id, sp := TraceIDFrom(7, 42).String(), SpanIDFrom(7, 42)
	for _, seed := range []string{
		"00-" + id + "-" + sp + "-01", " 00-" + id + "-" + sp + "-00\t",
		"00-" + strings.ToUpper(id) + "-" + sp + "-01", "01-" + id + "-" + sp + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + sp + "-01", "00-" + id + "-" + strings.Repeat("0", 16) + "-01",
		"00-" + id + "-" + sp + "-01-", "00-" + id + "-" + sp, "00--" + id + sp + "-01",
		id, strings.Repeat("0", 32), "", "-", "00-zz-11-01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		gotID, gotSpan, ok := ParseTraceparent(h)
		wantID, wantSpan, wantOK := splitTraceparent(h)
		if ok != wantOK || gotID.String() != wantID || gotSpan != wantSpan {
			t.Fatalf("ParseTraceparent(%q) = %q, %q, %v; the split parser gives %q, %q, %v",
				h, gotID, gotSpan, ok, wantID, wantSpan, wantOK)
		}
		if ok {
			if gotID.IsZero() {
				t.Fatalf("ParseTraceparent(%q) accepted the zero trace ID", h)
			}
			back := FormatTraceparent(gotID, gotSpan)
			if id2, sp2, ok2 := ParseTraceparent(back); !ok2 || id2 != gotID || sp2 != gotSpan {
				t.Fatalf("%q formats as %q, which parses as %q, %q, %v", h, back, id2, sp2, ok2)
			}
			if want := "00-" + wantID + "-" + wantSpan + "-01"; back != want {
				t.Fatalf("FormatTraceparent = %q, want %q", back, want)
			}
		} else if !gotID.IsZero() || gotSpan != "" {
			t.Fatalf("ParseTraceparent(%q) rejected the value but returned %q, %q", h, gotID, gotSpan)
		}

		tid, ok := ParseTraceID(h)
		wantOK = isHex(h, 32) && h != strings.Repeat("0", 32)
		if ok != wantOK {
			t.Fatalf("ParseTraceID(%q) ok = %v, want %v", h, ok, wantOK)
		}
		if ok && tid.String() != h {
			t.Fatalf("ParseTraceID(%q) renders back as %q", h, tid)
		}
		if !ok && !tid.IsZero() {
			t.Fatalf("ParseTraceID(%q) rejected the value but returned %q", h, tid)
		}
	})
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

// TestTraceRecorderAll: every retained trace, finished or still live, comes
// back in job-ID order whatever order the jobs finished in.
func TestTraceRecorderAll(t *testing.T) {
	r := NewTraceRecorder(8)
	feedJob(r, 2, 0, usT, 2*usT, 5*usT, true)
	r.Job(JobEvent{At: usT, Kind: JobArrive, Job: 1, Deadline: 100 * usT})
	r.Admission(AdmissionDecision{At: usT, Job: 1, Accepted: true})
	r.KernelStart(KernelStart{At: 3 * usT, Job: 1, Kernel: "gemm"})
	feedJob(r, 0, 2*usT, 3*usT, 4*usT, 9*usT, false)
	all := r.All()
	if len(all) != 3 {
		t.Fatalf("All = %d traces, want 3", len(all))
	}
	for i, want := range []string{"done", "running", "done"} {
		if all[i].Job != i || all[i].State != want {
			t.Errorf("All[%d] = job %d %s, want job %d %s", i, all[i].Job, all[i].State, i, want)
		}
	}
}

// TestTraceDocsRoundTrip: the doc array WriteTraceDocs writes reads back
// unchanged, and a single doc reads as a one-element array.
func TestTraceDocsRoundTrip(t *testing.T) {
	r := NewTraceRecorder(8)
	feedJob(r, 0, 0, usT, 2*usT, 5*usT, true)
	feedJob(r, 1, usT, 2*usT, 40*usT, 1500*usT, false)
	var docs []TraceDoc
	for _, tr := range r.All() {
		wire := tr.Wire("sim")
		docs = append(docs, TraceDoc{Trace: wire, Attribution: Attribute(wire)})
	}
	var buf strings.Builder
	if err := WriteTraceDocs(&buf, docs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTraceDocs([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, docs) {
		t.Fatalf("round trip changed the docs:\n got %+v\nwant %+v", got, docs)
	}
	one, err := json.Marshal(docs[1])
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ParseTraceDocs(one); err != nil || len(got) != 1 || got[0].Attribution.Cause != docs[1].Attribution.Cause {
		t.Fatalf("single doc read as %+v, %v", got, err)
	}
}

func TestParseTraceDocsErrors(t *testing.T) {
	for _, bad := range []string{"{not json}", "", `[{"trace":7}]`} {
		if _, err := ParseTraceDocs([]byte(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if docs, err := ParseTraceDocs([]byte("[]")); err != nil || len(docs) != 0 {
		t.Fatalf("empty array read as %v, %v", docs, err)
	}
}

// chainJob drives one job of the given chain length through its whole
// lifecycle, announcing the length on arrival the way cp.System does.
func chainJob(r *TraceRecorder, id, kernels int, at sim.Time) {
	r.Job(JobEvent{At: at, Kind: JobArrive, Job: id, Benchmark: "LSTM", Kernels: kernels, Deadline: at + sim.Second})
	r.Admission(AdmissionDecision{At: at, Job: id, Accepted: true})
	r.Job(JobEvent{At: at, Kind: JobReady, Job: id})
	for seq := 0; seq < kernels; seq++ {
		start := at + sim.Time(seq)*usT
		r.KernelStart(KernelStart{At: start, Job: id, Seq: seq, Kernel: "k"})
		r.KernelDone(KernelDone{At: start + usT, Job: id, Seq: seq, Kernel: "k", Start: start})
	}
	r.Job(JobEvent{At: at + sim.Time(kernels+1)*usT, Kind: JobFinish, Job: id, Met: true})
}

// TestTraceRecorderChainMixAllocs: a recorder fed one-kernel jobs with an
// LSTM chain of 18 to 361 kernels every ninth job, past its ring depth,
// allocates nothing per job. Each evicted long span buffer waits in the
// spare list for the next long chain it fits, and the short buffer that
// chain's row held waits there for the next short arrival whose row lost
// its long buffer; a fresh buffer per LSTM arrival reads thousands of
// bytes per chain.
func TestTraceRecorderChainMixAllocs(t *testing.T) {
	const depth = 64
	seqLens := []int{16, 1, 50, 23, 9, 31, 16, 12, 40, 5} // the LSTM chain is 11+7L kernels
	r := NewTraceRecorder(depth)
	id := 0
	cycle := func() {
		for _, L := range seqLens {
			for range 8 {
				chainJob(r, id, 1, sim.Time(id)*sim.Millisecond)
				id++
			}
			chainJob(r, id, 11+7*L, sim.Time(id)*sim.Millisecond)
			id++
		}
	}
	for range 2 * depth {
		cycle()
	}
	allocs := testing.AllocsPerRun(50, cycle)
	if allocs != 0 {
		t.Errorf("%d jobs of the LSTM/STEM mix past the ring depth cost %v allocations, want 0", 9*len(seqLens), allocs)
	}
	if tr, ok := r.Get(id - 1); !ok || len(tr.Spans) != 11+7*seqLens[len(seqLens)-1]+4 {
		t.Fatalf("last chain's trace has %d spans (ok=%v), want %d", len(tr.Spans), ok, 11+7*seqLens[len(seqLens)-1]+4)
	}
}
