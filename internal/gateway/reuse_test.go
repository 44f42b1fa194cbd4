package gateway

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// sawJob is what a backend was handed for one job, read before Submit
// returned or done fired.
type sawJob struct {
	id        int64
	benchmark string
	deadline  sim.Time
	class     Class
	traceID   string
}

// reentrantBackend reports every job met inside Submit and, still inside
// it, submits the next job of its script through the gateway: the first
// job's terminal transition, and so the second job's whole arrival, runs
// while the gateway's submit of the first has mu released. It reads the
// job only before done fires, as a backend must.
type reentrantBackend struct {
	gw     *Gateway
	script []func()
	saw    []sawJob
}

func (b *reentrantBackend) Name() string { return "node0" }

func (b *reentrantBackend) Probe(sim.Time) (Headroom, error) {
	return Headroom{Capacity: 1, CapacityFrac: 1}, nil
}

func (b *reentrantBackend) Submit(_ sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	id := job.ID
	b.saw = append(b.saw, sawJob{id, job.Benchmark, job.Deadline, job.Class, fmt.Sprint(job.TraceID)})
	done(Outcome{Terminal: verify.FleetDone, Met: true})
	if len(b.script) > 0 {
		next := b.script[0]
		b.script = b.script[1:]
		next()
	}
	return Verdict{Accepted: true, RemoteID: id}, nil
}

// TestSubmitReadsNoJobAfterPlace: a submission whose job settles while place
// has mu released, and under whose Backend.Submit a second submission
// arrives, keeps its own ID, journal row and status. A gateway that reads
// the job after place would find whatever the nested arrival made of it.
func TestSubmitReadsNoJobAfterPlace(t *testing.T) {
	be := &reentrantBackend{}
	gw, err := New(Options{Backends: []Backend{be}, Clock: serve.NewManualClock(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	be.gw = gw
	gw.TickProbes(0)
	lstm, _ := workload.FindBenchmark("LSTM")
	stem, _ := workload.FindBenchmark("STEM")
	type want struct {
		bench    *workload.Benchmark
		deadline sim.Time
		class    Class
	}
	// Outer submissions alternate with nested ones, so each nested arrival
	// may take whatever the outer one's settlement freed.
	plan := []want{
		{lstm, 40 * sim.Second, Standard}, {stem, 7 * sim.Millisecond, Critical},
		{stem, 9 * sim.Second, BestEffort}, {lstm, 3 * sim.Second, Critical},
		{lstm, 11 * sim.Second, Standard}, {stem, 5 * sim.Second, BestEffort},
	}
	got := map[int64]want{}
	submit := func(w want) {
		id, v, reason := gw.Submit(w.bench, w.deadline, w.class)
		if reason != "" || !v.Accepted {
			t.Fatalf("submission refused: %q %+v", reason, v)
		}
		if _, dup := got[id]; dup {
			t.Fatalf("ID %d returned twice", id)
		}
		got[id] = w
	}
	for i := 0; i < len(plan); i += 2 {
		nested := plan[i+1]
		be.script = append(be.script, func() { submit(nested) })
		submit(plan[i])
		if be.script = be.script[:0]; len(got) != i+2 {
			t.Fatalf("after outer submission %d: %d jobs journaled, want %d", i/2, len(got), i+2)
		}
	}
	// Submission order: outer i gets ID i, its nested one i+1.
	for i, w := range plan {
		if got[int64(i)] != w {
			t.Errorf("ID %d was returned for %+v, want %+v", i, got[int64(i)], w)
		}
	}
	if len(be.saw) != len(plan) {
		t.Fatalf("backend saw %d jobs, want %d", len(be.saw), len(plan))
	}
	for _, s := range be.saw {
		w := got[s.id]
		if s.benchmark != w.bench.Name || s.deadline != w.deadline || s.class != w.class {
			t.Errorf("backend was handed job %d as %+v, want %+v", s.id, s, w)
		}
		st, ok := gw.Status(s.id)
		if !ok {
			t.Fatalf("job %d is not journaled", s.id)
		}
		if st.ID != s.id || st.Benchmark != w.bench.Name || st.DeadlineUs != usOf(w.deadline) ||
			st.Class != w.class.String() || st.TraceID != s.traceID || s.traceID == "" {
			t.Errorf("status of job %d = %+v, want its own benchmark %s, deadline %v, class %s, trace %s",
				s.id, st, w.bench.Name, w.deadline, w.class, s.traceID)
		}
		if st.State != verify.FleetDone || !st.Accepted || !st.MetDeadline ||
			!reflect.DeepEqual(st.Dispatches, []string{"node0"}) {
			t.Errorf("status of job %d = %+v, want done and met on node0", s.id, st)
		}
	}
	for _, fj := range gw.FleetJobs() {
		if !fj.Accepted || fj.Terminal != verify.FleetDone || fj.Duplicates != 0 ||
			!reflect.DeepEqual(fj.Dispatches, []string{"node0"}) {
			t.Errorf("journal row %+v, want accepted, done once, on node0", fj)
		}
	}
	if n := gw.Inflight(); n != 0 {
		t.Errorf("inflight = %d after every job settled, want 0", n)
	}
	if vs := gw.Check(sim.Second); len(vs) != 0 {
		t.Errorf("CheckFleet: %v", vs)
	}
	checkTerminalCount(t, &gw.journal)
}

// TestLateReportAfterFailoverHitsItsOwnJob: node0 freezes with jobs
// running, its breaker trips and the jobs fail over to node1, which
// finishes them. More than two journal pages of jobs follow while node0
// stays frozen. When node0 thaws it delivers its copies late, and each
// must land as a duplicate on its own job: a failed-over job's storage
// that served a later submission would carry the late report to that
// one instead.
func TestLateReportAfterFailoverHitsItsOwnJob(t *testing.T) {
	gw, clock := fleet(t, 2, "freeze@5ms+1s", 7, 1)
	gw.TickProbes(0)
	lstm, _ := workload.FindBenchmark("LSTM")
	stem, _ := workload.FindBenchmark("STEM")
	for i := 0; i < 8; i++ {
		clock.Set(sim.Time(i) * 500 * sim.Microsecond)
		if _, _, reason := gw.Submit(lstm, 60*sim.Second, Standard); reason != "" {
			t.Fatalf("submission %d refused: %s", i, reason)
		}
	}
	var orphans []int64
	for _, fj := range gw.FleetJobs() {
		if fj.Terminal == "" && reflect.DeepEqual(fj.Dispatches, []string{"node0"}) {
			orphans = append(orphans, fj.ID)
		}
	}
	if len(orphans) == 0 {
		t.Fatal("no job is running on node0 when it freezes")
	}
	t.Logf("%d jobs fail over from node0", len(orphans))

	// Inside the freeze: node0's breaker trips and its jobs fail over.
	clock.Set(6 * sim.Millisecond)
	gw.TickProbes(clock.Now())
	if fs := gw.Fleet(); fs.Nodes[0].Breaker != "open" {
		t.Fatalf("node0 breaker = %s inside the freeze, want open", fs.Nodes[0].Breaker)
	}

	// More than two journal pages of arrivals, all on node1, probed every
	// millisecond so each settles soon after it arrives.
	const more = 2*pageRows + 300
	for i := 0; i < more; i++ {
		clock.Advance(200 * sim.Microsecond)
		if i%5 == 0 {
			gw.TickProbes(clock.Now())
		}
		gw.Submit(stem, 20*sim.Millisecond, Standard)
	}
	// Still frozen: node1 drains everything, failed-over jobs included.
	for i := 0; i < 50; i++ {
		clock.Advance(sim.Millisecond)
		gw.TickProbes(clock.Now())
	}
	if clock.Now() >= 5*sim.Millisecond+sim.Second {
		t.Fatalf("the arrivals ran past the freeze (now %v)", clock.Now())
	}
	if n := gw.Inflight(); n != 0 {
		t.Fatalf("%d jobs still in flight before the thaw, want 0", n)
	}
	before := map[int64][]byte{}
	for _, fj := range gw.FleetJobs() {
		st, _ := gw.Status(fj.ID)
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		before[fj.ID] = raw
	}
	if len(before) < len(orphans)+2*pageRows {
		t.Fatalf("journal holds %d jobs, want more than two pages", len(before))
	}

	// Thaw: probes past the backoff close node0's breaker, and node0
	// delivers every copy it was running.
	for at := 2 * sim.Second; gw.Fleet().Nodes[0].Breaker != "closed"; at += sim.Second {
		if at > 10*sim.Second {
			t.Fatal("node0 never recovered after the thaw")
		}
		clock.Set(at)
		gw.TickProbes(at)
	}
	isOrphan := map[int64]bool{}
	for _, id := range orphans {
		isOrphan[id] = true
	}
	for _, fj := range gw.FleetJobs() {
		want := 0
		if isOrphan[fj.ID] {
			want = 1
			if !reflect.DeepEqual(fj.Dispatches, []string{"node0", "node1"}) {
				t.Errorf("job %d dispatches = %v, want node0 then node1", fj.ID, fj.Dispatches)
			}
		}
		if fj.Duplicates != want {
			t.Errorf("job %d has %d duplicate reports, want %d", fj.ID, fj.Duplicates, want)
		}
		st, _ := gw.Status(fj.ID)
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(before[fj.ID]) {
			t.Errorf("job %d's status moved at the thaw:\n was %s\n now %s", fj.ID, before[fj.ID], raw)
		}
	}
	if fs := gw.Fleet(); fs.Duplicates != int64(len(orphans)) {
		t.Errorf("duplicates = %d, want one per failed-over job (%d)", fs.Duplicates, len(orphans))
	}
	if vs := gw.Check(clock.Now()); len(vs) != 0 {
		t.Errorf("CheckFleet: %v", vs)
	}
	checkTerminalCount(t, &gw.journal)
}
