package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"laxgpu/internal/sim"
)

// referenceRecorder is TraceRecorder as it stood before its storage became
// recycled rows: a fresh refTrace per job, a growing []Span with every
// Detail formatted as its event arrives, a map of live traces and a ring of
// finished ones. Test-only: TestTraceRecorderMatchesReference holds the live
// recorder to its answers.
type referenceRecorder struct {
	depth    int
	live     map[int]*refTrace
	done     []*refTrace // ring, insertion order; done[next] is oldest
	next     int
	inflight int
}

type refTrace struct {
	JobTrace
	firstDispatch sim.Time
	ready         sim.Time
	hasReady      bool
	hasDispatch   bool
}

func newReferenceRecorder(depth int) *referenceRecorder {
	if depth <= 0 {
		depth = 256
	}
	return &referenceRecorder{depth: depth, live: make(map[int]*refTrace)}
}

func (r *referenceRecorder) Assign(job int, traceID string) {
	if t := r.lookup(job); t != nil {
		t.TraceID = traceID
	}
}

func (r *referenceRecorder) Get(job int) (JobTrace, bool) {
	if t := r.lookup(job); t != nil {
		return t.snapshot(), true
	}
	return JobTrace{}, false
}

func (r *referenceRecorder) GetByID(traceID string) (JobTrace, bool) {
	for _, t := range r.live {
		if t.TraceID == traceID {
			return t.snapshot(), true
		}
	}
	for _, t := range r.done {
		if t.TraceID == traceID {
			return t.snapshot(), true
		}
	}
	return JobTrace{}, false
}

func (r *referenceRecorder) Recent(n int) []JobTrace {
	if n <= 0 || n > len(r.done) {
		n = len(r.done)
	}
	out := make([]JobTrace, 0, n)
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.done)) % len(r.done)
		out = append(out, r.done[idx].snapshot())
	}
	return out
}

func (r *referenceRecorder) lookup(job int) *refTrace {
	if t, ok := r.live[job]; ok {
		return t
	}
	for _, t := range r.done {
		if t.Job == job {
			return t
		}
	}
	return nil
}

func (t *refTrace) snapshot() JobTrace {
	c := t.JobTrace
	c.Spans = append([]Span(nil), t.Spans...)
	return c
}

func (r *referenceRecorder) finish(t *refTrace) {
	delete(r.live, t.Job)
	if len(r.done) < r.depth {
		r.done = append(r.done, t)
		r.next = len(r.done) % r.depth
		return
	}
	r.done[r.next] = t
	r.next = (r.next + 1) % r.depth
}

func (r *referenceRecorder) Job(e JobEvent) {
	switch e.Kind {
	case JobArrive:
		r.live[e.Job] = &refTrace{JobTrace: JobTrace{
			Job: e.Job, Benchmark: e.Benchmark,
			Arrival: e.At, Deadline: e.Deadline, State: "running",
		}}
	case JobReject:
		if t, ok := r.live[e.Job]; ok {
			t.State, t.Finish = "rejected", e.At
			r.finish(t)
		}
	case JobReady:
		if t, ok := r.live[e.Job]; ok {
			t.ready, t.hasReady = e.At, true
			t.Spans = append(t.Spans, Span{
				Kind: SpanPhase, Name: PhaseParse, Start: t.Arrival, End: e.At,
			})
		}
	case JobFallback:
		if t, ok := r.live[e.Job]; ok {
			t.FellBack = true
			t.Spans = append(t.Spans, Span{
				Kind: SpanEvent, Name: EventFallback, Start: e.At, End: e.At,
				Detail: "remaining kernels moved to the host CPU",
			})
		}
	case JobFinish, JobCancel:
		t, ok := r.live[e.Job]
		if !ok {
			return
		}
		r.inflight--
		t.Finish = e.At
		if e.Kind == JobCancel {
			t.State = "cancelled"
		} else {
			t.State, t.Met = "done", e.Met
		}
		switch {
		case t.hasDispatch:
			t.Spans = append(t.Spans, Span{
				Kind: SpanPhase, Name: PhaseExec, Start: t.firstDispatch, End: t.Finish,
			})
		case t.hasReady:
			t.Spans = append(t.Spans, Span{
				Kind: SpanPhase, Name: PhaseFallback, Start: t.ready, End: t.Finish,
				Detail: "completed without ever dispatching to the GPU",
			})
		default:
			t.Spans = append(t.Spans, Span{
				Kind: SpanPhase, Name: PhaseParse, Start: t.Arrival, End: t.Finish,
			})
		}
		r.finish(t)
	}
}

func (r *referenceRecorder) Admission(e AdmissionDecision) {
	t, ok := r.live[e.Job]
	if !ok {
		return
	}
	verdict := "reject"
	if e.Accepted {
		verdict = "accept"
		r.inflight++
	}
	detail := verdict
	if e.HasTerms {
		detail = fmt.Sprintf("%s: queue_delay=%dus + hold=%dus vs deadline=%dus",
			verdict, int64(us(e.QueueDelay)), int64(us(e.HoldTime)), int64(us(e.Deadline)))
	}
	t.Spans = append(t.Spans, Span{
		Kind: SpanEvent, Name: EventAdmit, Start: e.At, End: e.At, Detail: detail,
	})
}

func (r *referenceRecorder) KernelStart(e KernelStart) {
	t, ok := r.live[e.Job]
	if !ok || t.hasDispatch {
		return
	}
	t.firstDispatch, t.hasDispatch = e.At, true
	start := t.Arrival
	if t.hasReady {
		start = t.ready
	}
	behind := r.inflight - 1
	if behind < 0 {
		behind = 0
	}
	t.Spans = append(t.Spans, Span{
		Kind: SpanPhase, Name: PhaseQueue, Start: start, End: e.At,
		Detail: fmt.Sprintf("behind %d admitted jobs", behind),
	})
}

func (r *referenceRecorder) KernelDone(e KernelDone) {
	t, ok := r.live[e.Job]
	if !ok {
		return
	}
	t.Spans = append(t.Spans, Span{
		Kind: SpanKernel, Name: e.Kernel, Start: e.Start, End: e.At,
		Detail: fmt.Sprintf("seq %d", e.Seq),
	})
}

// TestTraceRecorderMatchesReference feeds random event interleavings to the
// recorder and to referenceRecorder and requires equal Get, GetByID and
// Recent answers after every event. The script gives each job one admission
// verdict, as cp.System does, and otherwise fires any event at any job:
// fallback after some kernels, cancel before ready, events for jobs never
// seen or long evicted, Assign after eviction, re-Assign, rings from one row
// to past their depth.
func TestTraceRecorderMatchesReference(t *testing.T) {
	kernels := []string{"gemm", "TensorKernel4", "ActivationKernel5"}
	benches := []string{"LSTM", "STEM", "GMM"}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		depth := []int{1, 2, 3, 5, 8, 0}[seed%6]
		got, want := NewTraceRecorder(depth), newReferenceRecorder(depth)
		var (
			now      sim.Time
			arrived  int
			admitted = map[int]bool{}
			traceIDs []string
		)
		job := func() int { return rng.Intn(arrived+2) - 1 }
		check := func(step int, what string) {
			t.Helper()
			fail := func(q string, g, w any) {
				t.Fatalf("seed %d step %d (%s): %s\n got %+v\nwant %+v", seed, step, what, q, g, w)
			}
			for id := -1; id <= arrived; id++ {
				g, gok := got.Get(id)
				w, wok := want.Get(id)
				if gok != wok || !reflect.DeepEqual(g, w) {
					fail(fmt.Sprintf("Get(%d)", id), g, w)
				}
			}
			for _, tid := range append(traceIDs, "never-assigned") {
				g, gok := got.GetByID(tid)
				w, wok := want.GetByID(tid)
				if gok != wok || !reflect.DeepEqual(g, w) {
					fail(fmt.Sprintf("GetByID(%q)", tid), g, w)
				}
			}
			for _, n := range []int{-1, 0, 1, 2, 7, 300} {
				if g, w := got.Recent(n), want.Recent(n); !reflect.DeepEqual(g, w) {
					fail(fmt.Sprintf("Recent(%d)", n), g, w)
				}
			}
		}
		for step := 0; step < 120; step++ {
			now += sim.Time(rng.Intn(40)) * sim.Microsecond
			var what string
			switch r := rng.Intn(20); {
			case r < 4:
				e := JobEvent{At: now, Kind: JobArrive, Job: arrived,
					Benchmark: benches[rng.Intn(len(benches))], Deadline: now + sim.Time(rng.Intn(2000))*sim.Microsecond}
				arrived++
				got.Job(e)
				want.Job(e)
				what = "arrive"
			case r < 6:
				id := job()
				if admitted[id] {
					continue
				}
				admitted[id] = true
				e := AdmissionDecision{At: now, Job: id, Accepted: rng.Intn(4) != 0, HasTerms: rng.Intn(3) != 0,
					QueueDelay: sim.Time(rng.Int63n(5e9)) - 1e9, HoldTime: sim.Time(rng.Int63n(1e8)), Deadline: sim.Time(rng.Int63n(1e10))}
				got.Admission(e)
				want.Admission(e)
				what = "admission"
			case r < 14:
				k := []JobEventKind{JobReject, JobReady, JobReady, JobFallback, JobFinish, JobFinish, JobCancel, JobCancel}[r-6]
				e := JobEvent{At: now, Kind: k, Job: job(), Met: rng.Intn(2) == 0}
				got.Job(e)
				want.Job(e)
				what = k.String()
			case r < 16:
				e := KernelStart{At: now, Job: job(), Seq: rng.Intn(5), Kernel: kernels[rng.Intn(len(kernels))]}
				got.KernelStart(e)
				want.KernelStart(e)
				what = "kernel start"
			case r < 19:
				start := now - sim.Time(rng.Intn(30))*sim.Microsecond
				e := KernelDone{At: now, Job: job(), Seq: rng.Intn(300) - 1, Kernel: kernels[rng.Intn(len(kernels))], Start: start}
				got.KernelDone(e)
				want.KernelDone(e)
				what = "kernel done"
			default:
				id, tid := job(), TraceIDFrom(uint64(seed), uint64(step))
				traceIDs = append(traceIDs, tid.String())
				got.Assign(id, tid)
				want.Assign(id, tid.String())
				what = "assign"
			}
			check(step, what)
		}
	}
}
