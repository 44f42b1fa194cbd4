package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
)

// refRecordTable is laxd's record table as a map and an order slice, one
// *refRecord per job: the shape the table had before its rows moved into
// pages, kept as the oracle for TestRecordTableMatchesReference.
type refRecordTable struct {
	mu    sync.Mutex
	max   int
	byID  map[int64]*refRecord
	order []int64 // exactly the keys of byID, in submission order
}

type refRecord struct {
	status   JobStatus
	terminal bool
}

func newRefRecordTable(max int) *refRecordTable {
	return &refRecordTable{max: max, byID: make(map[int64]*refRecord)}
}

func (t *refRecordTable) add(st JobStatus) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byID[st.ID] = &refRecord{status: st}
	t.order = append(t.order, st.ID)
	for len(t.order) > t.max {
		i := 0
		for i < len(t.order) && !t.byID[t.order[i]].terminal {
			i++
		}
		if i == len(t.order) {
			break // every record is still running: the table runs over its cap
		}
		delete(t.byID, t.order[i])
		t.order = append(t.order[:i], t.order[i+1:]...)
	}
}

func (t *refRecordTable) get(id int64) (JobStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.byID[id]
	if !ok {
		return JobStatus{}, false
	}
	return r.status, true
}

func (t *refRecordTable) update(id int64, fn func(*JobStatus), terminal bool) (JobStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.byID[id]
	fn(&r.status)
	first := terminal && !r.terminal
	r.terminal = r.terminal || terminal
	return r.status, first
}

// tableUnderTest adapts the server's record table to the oracle's calls.
type tableUnderTest struct {
	t       *testing.T
	tbl     *recordTable
	clients map[int64]string // what each record's terminal transition must hand back
}

func newTableUnderTest(t *testing.T, max int) *tableUnderTest {
	return &tableUnderTest{t: t, tbl: newRecordTable(max), clients: map[int64]string{}}
}

func (a *tableUnderTest) add(st JobStatus, client string) {
	a.clients[st.ID] = client
	tid, _ := obs.ParseTraceID(st.TraceID)
	a.tbl.add(st.ID, st.Benchmark, st.DeadlineUs, tid, client)
}

func (a *tableUnderTest) get(id int64) (JobStatus, bool) { return a.tbl.get(id) }

// update is a non-terminal update, or a terminal transition the server
// settles as soon as it reports first.
func (a *tableUnderTest) update(id int64, fn func(*JobStatus), terminal bool) (JobStatus, bool) {
	if !terminal {
		return a.tbl.update(id, fn), false
	}
	st, client, first := a.tbl.finish(id, fn)
	if first {
		if client != a.clients[id] {
			a.t.Fatalf("record %d's terminal transition handed back client %q, want %q", id, client, a.clients[id])
		}
		a.tbl.settle(id)
	}
	return st, first
}

// TestRecordTableMatchesReference drives the record table and the oracle
// through the same random submissions, verdicts, terminal transitions (a
// second report now and then) and reads at cap 64, with runs of jobs that
// stay open long enough to hold the table over its cap: every read and
// every update's answer must agree.
func TestRecordTableMatchesReference(t *testing.T) {
	const max, steps = 64, 24000
	rng := rand.New(rand.NewSource(5))
	benches := []string{"LSTM", "STEM", "GMM", "CUCKOO", "IPV6"}
	causes := []string{metrics.MissContended.String(), metrics.MissFaulted.String(), metrics.MissCancelled.String()}
	ref, got := newRefRecordTable(max), newTableUnderTest(t, max)
	var next int64
	var open []int64 // submitted, not yet terminal
	check := func(step int, id int64) {
		w, wok := ref.get(id)
		g, gok := got.get(id)
		if w != g || wok != gok {
			t.Fatalf("step %d: get(%d) = %+v, %v; oracle %+v, %v", step, id, g, gok, w, wok)
		}
	}
	update := func(step int, id int64, fn func(*JobStatus), terminal bool) {
		w, wfirst := ref.update(id, fn, terminal)
		g, gfirst := got.update(id, fn, terminal)
		if w != g || wfirst != gfirst {
			t.Fatalf("step %d: update(%d, terminal=%v) = %+v, %v; oracle %+v, %v", step, id, terminal, g, gfirst, w, wfirst)
		}
	}
	for step := 0; step < steps; step++ {
		// Phases where jobs rarely finish let open records pile past the cap.
		finishRate := 30
		if step/2000%4 == 3 {
			finishRate = 2
		}
		switch op := rng.Intn(100); {
		case op < 40:
			st := JobStatus{
				ID:         next,
				Benchmark:  benches[rng.Intn(len(benches))],
				State:      "submitted",
				DeadlineUs: int64(rng.Intn(20000)),
				TraceID:    obs.TraceIDFrom(uint64(rng.Intn(3)), uint64(next)).String(),
			}
			ref.add(st)
			got.add(st, fmt.Sprintf("10.0.0.%d", rng.Intn(4)))
			open = append(open, next)
			next++
		case op < 40+finishRate && len(open) > 0:
			k := rng.Intn(len(open))
			id := open[k]
			open = append(open[:k], open[k+1:]...)
			var fn func(*JobStatus)
			switch rng.Intn(5) {
			case 0:
				retry := int64(rng.Intn(5000))
				fn = func(js *JobStatus) {
					js.State, js.Reason = "rejected", ReasonAdmission
					js.MissCause = metrics.MissRejected.String()
					js.RetryAfterUs = retry
				}
			case 1:
				fn = func(js *JobStatus) { js.State = "dropped" }
			default:
				state, met := "done", rng.Intn(3) > 0
				if rng.Intn(4) == 0 {
					state, met = "cancelled", false
				}
				cause := ""
				if !met {
					cause = causes[rng.Intn(len(causes))]
				}
				fellBack, latency := rng.Intn(5) == 0, int64(rng.Intn(30000))
				fn = func(js *JobStatus) {
					js.State, js.MetDeadline, js.FellBack = state, met, fellBack
					js.LatencyUs, js.MissCause = latency, cause
				}
			}
			update(step, id, fn, true)
			if rng.Intn(10) == 0 {
				// A second report changes what it writes but is not first.
				update(step, id, func(js *JobStatus) { js.State = "cancelled" }, true)
			}
		case op < 80 && len(open) > 0:
			id := open[rng.Intn(len(open))]
			update(step, id, func(js *JobStatus) { js.State, js.Admitted = "admitted", true }, false)
		default:
			check(step, rng.Int63n(next+2)-1)
		}
		if step%3000 == 2999 {
			for id := int64(-1); id <= next; id++ {
				check(step, id)
			}
		}
	}
}

// TestRecordWideValuesLeaveWithTheirRows keeps ten caps' worth of settled
// records whose deadline does not fit a row: the wide map keeps only the
// retained rows'.
func TestRecordWideValuesLeaveWithTheirRows(t *testing.T) {
	const max = 64
	tbl := newRecordTable(max)
	for id := int64(0); id < 10*max; id++ {
		tbl.add(id, "LSTM", 1<<40, obs.TraceID{}, "")
		tbl.finish(id, func(js *JobStatus) { js.State = "done" })
		tbl.settle(id)
	}
	if tbl.wide.Len() != max {
		t.Errorf("the table keeps %d wide rows, want %d", tbl.wide.Len(), max)
	}
	if st, _ := tbl.get(10*max - 1); st.DeadlineUs != 1<<40 {
		t.Errorf("the newest record's deadline reads %d µs, want %d", st.DeadlineUs, int64(1<<40))
	}
}
