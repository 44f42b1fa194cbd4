package gateway

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// wideNode is a scripted node for values past a narrow row field's range: it
// probes with drain, refuses at admission with retry when that is set, and
// otherwise accepts, either reporting outcome at once or, with hold, keeping
// done for the test to fire.
type wideNode struct {
	name    string
	drain   sim.Time
	down    bool
	retry   sim.Time
	hold    bool
	outcome Outcome
	dones   []func(Outcome)
}

func (n *wideNode) Name() string { return n.name }

func (n *wideNode) Probe(sim.Time) (Headroom, error) {
	if n.down {
		return Headroom{}, fmt.Errorf("%s is down", n.name)
	}
	return Headroom{Drain: n.drain, Capacity: 1, CapacityFrac: 1}, nil
}

func (n *wideNode) Submit(_ sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	if n.down {
		return Verdict{}, fmt.Errorf("%s is down", n.name)
	}
	id := job.ID
	switch {
	case n.retry != 0:
		return Verdict{Retry: n.retry}, nil
	case n.hold:
		n.dones = append(n.dones, done)
	default:
		o := n.outcome
		if o.Terminal == "" {
			o = Outcome{Terminal: verify.FleetDone, Met: true}
		}
		done(o)
	}
	return Verdict{Accepted: true, RemoteID: id}, nil
}

// TestJournalWideValuesRoundTrip journals jobs whose numbers do not fit a
// 32-bit field: deadlines past 4.295 s in nanoseconds (and one of exactly
// 2³²−1 ns, and a negative one), a latency, a retry hint and a probed drain
// of 2³² µs or more, and a job failed over twice whose dead nodes then
// report it late (two duplicates). Everything the journal renders of them —
// Status JSON, FleetJobs rows, the stitched trace with its route-span
// detail, and CheckFleet's verdict — must read the exact values, and read
// byte-identical after every older neighbour has been evicted and its pages
// reopened for newer jobs.
func TestJournalWideValuesRoundTrip(t *testing.T) {
	const d = (1<<32 + 5) * sim.Microsecond // a drain of 2³² µs and more
	stem, err := workload.FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*wideNode{{name: "node0"}, {name: "node1"}, {name: "node2"}}
	clock := serve.NewManualClock()
	gw, err := New(Options{Backends: []Backend{nodes[0], nodes[1], nodes[2]}, Clock: clock, Seed: 7, FailThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	tick := sim.Time(0)
	probe := func() {
		tick += sim.Millisecond
		gw.TickProbes(tick)
	}
	submit := func(deadline sim.Time, class Class) int64 {
		id, _, _ := gw.Submit(stem, deadline, class)
		return id
	}
	probe()
	const older = 2 * pageRows
	for i := 0; i < older; i++ {
		if id, _, reason := gw.Submit(stem, stem.Deadline, Standard); reason != "" {
			t.Fatalf("neighbour %d refused: %s", id, reason)
		}
	}

	// W is routed to node0 with a wide drain, failed over to node1 and then
	// node2, which reports a wide latency; node0 and node1 report it late.
	for k, n := range nodes {
		n.drain, n.hold = sim.Time(k+1)*d, true
	}
	probe()
	wDeadline := d/8 + 123
	w := submit(wDeadline, Critical)
	nodes[0].down = true
	probe()
	nodes[1].down = true
	probe()
	const latency = (1<<32 + 7) * sim.Microsecond
	if len(nodes[0].dones) != 1 || len(nodes[1].dones) != 1 || len(nodes[2].dones) != 1 {
		t.Fatalf("W was offered %d, %d and %d times, want once to each node",
			len(nodes[0].dones), len(nodes[1].dones), len(nodes[2].dones))
	}
	nodes[2].dones[0](Outcome{Terminal: verify.FleetDone, Latency: latency})
	nodes[0].dones[0](Outcome{Terminal: verify.FleetDone, Met: true})
	nodes[1].dones[0](Outcome{Terminal: verify.FleetCancelled})

	// R is refused at admission with a wide retry hint; S, X and N are shed
	// with the wide drain as theirs; Y is met with a latency of exactly
	// 2³²−1 µs.
	const retry = (1<<33 + 3) * sim.Microsecond
	nodes[2].hold, nodes[2].retry = false, retry
	r := submit(d/4+999, Critical)
	nodes[2].retry = 0
	s := submit(1500*sim.Microsecond+7, Standard)
	x := submit(1<<32-1, Standard)
	nb := submit(-5, BestEffort)
	nodes[2].outcome = Outcome{Terminal: verify.FleetDone, Met: true, Latency: (1<<32 - 1) * sim.Microsecond}
	y := submit(d/4+1, Critical)
	wide := []int64{w, r, s, x, nb, y}

	snapshot := func() []string {
		rows := map[int64]verify.FleetJob{}
		var wideRows []verify.FleetJob
		for _, fj := range gw.FleetJobs() {
			rows[fj.ID] = fj
		}
		var out []string
		for _, id := range wide {
			st, ok := gw.Status(id)
			if !ok {
				t.Fatalf("job %d is not journaled", id)
			}
			doc, ok := gw.StitchedTrace(id)
			if !ok {
				t.Fatalf("job %d has no trace", id)
			}
			wideRows = append(wideRows, rows[id])
			for _, v := range []any{st, rows[id], doc} {
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, string(b))
			}
		}
		b, err := json.Marshal(verify.CheckFleet(clock.Now(), wideRows))
		if err != nil {
			t.Fatal(err)
		}
		return append(out, string(b))
	}
	before := snapshot()

	status := func(id int64) JobStatus { st, _ := gw.Status(id); return st }
	trace := func(id int64) string {
		doc, _ := gw.StitchedTrace(id)
		b, _ := json.Marshal(doc.Trace)
		return string(b)
	}
	slack := func(deadline sim.Time) string {
		return `"slack_us":` + strconv.FormatFloat(float64(deadline)/float64(sim.Microsecond), 'f', -1, 64)
	}
	if st := status(w); st.DeadlineUs != usOf(wDeadline) || st.LatencyUs != usOf(latency) || st.MetDeadline ||
		strings.Join(st.Dispatches, ",") != "node0,node1,node2" || st.State != verify.FleetDone {
		t.Errorf("W: %+v; want deadline %d µs, latency %d µs, missed, dispatched node0,node1,node2",
			st, usOf(wDeadline), usOf(latency))
	}
	for _, want := range []string{
		slack(wDeadline),
		"routed to node0 (drain=4294967301us, accepted=true)",
	} {
		if !strings.Contains(trace(w), want) {
			t.Errorf("W's trace lacks %s:\n%s", want, trace(w))
		}
	}
	for _, fj := range gw.FleetJobs() {
		if fj.ID == w && fj.Duplicates != 2 {
			t.Errorf("W counts %d duplicates, want 2", fj.Duplicates)
		}
	}
	if st := status(r); st.RetryAfterUs != usOf(retry) || st.Reason != serve.ReasonAdmission ||
		!strings.Contains(trace(r), "routed to node2 (drain=12884901903us, accepted=false)") {
		t.Errorf("R: %+v, trace %s; want refused by node2 with a %d µs retry", st, trace(r), usOf(retry))
	}
	for _, c := range []struct {
		id       int64
		deadline sim.Time
	}{{s, 1500*sim.Microsecond + 7}, {x, 1<<32 - 1}, {nb, -5}} {
		st := status(c.id)
		if st.Reason != serve.ReasonShed || st.RetryAfterUs != usOf(3*d) || st.DeadlineUs != usOf(c.deadline) ||
			!strings.Contains(trace(c.id), slack(c.deadline)) {
			t.Errorf("job %d: %+v, trace %s; want shed with a %d µs retry and a %d ns deadline",
				c.id, st, trace(c.id), usOf(3*d), c.deadline)
		}
	}
	if st := status(y); st.LatencyUs != 1<<32-1 || !st.MetDeadline {
		t.Errorf("Y: %+v; want met with a latency of %d µs", st, int64(1<<32-1))
	}
	if vs := gw.Check(clock.Now()); len(vs) != 0 {
		t.Fatalf("journal violations: %v", vs)
	}

	// Evict every older neighbour: their pages are freed and reopened.
	nodes[2].drain, nodes[2].outcome = 0, Outcome{}
	probe()
	for n := 0; ; n++ {
		if _, ok := gw.Status(older - 1); !ok {
			break
		}
		if n > 2*maxRecords {
			t.Fatal("the older neighbours were never evicted")
		}
		if id, _, reason := gw.Submit(stem, stem.Deadline, Standard); reason != "" {
			t.Fatalf("neighbour %d refused: %s", id, reason)
		}
	}
	after := snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("a wide job reads differently once its neighbours are evicted:\nbefore %s\n after %s", before[i], after[i])
		}
	}
	if vs := gw.Check(clock.Now()); len(vs) != 0 {
		t.Fatalf("journal violations after eviction: %v", vs)
	}
}
