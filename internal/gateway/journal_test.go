package gateway

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// checkTerminalCount asserts the maintained terminal counter behind
// Fleet().Terminal equals a brute-force count over the journal.
func checkTerminalCount(t *testing.T, j *journal) {
	t.Helper()
	want := 0
	for _, fj := range j.fleetJobs() {
		if fj.Terminal != "" {
			want++
		}
	}
	if j.terminals != want {
		t.Fatalf("terminal counter = %d, the journal holds %d terminal entries", j.terminals, want)
	}
}

// shiftJournal is the journal order as it was kept before eviction became
// O(1): one slice, the oldest terminal entry removed by shifting everything
// behind it. The property test replays every step against it.
type shiftJournal struct {
	max      int
	order    []int64
	terminal map[int64]bool
	evicted  []int64
}

func (j *shiftJournal) add(id int64) {
	j.order = append(j.order, id)
	for len(j.order) > j.max {
		evicted := false
		for i, old := range j.order {
			if j.terminal[old] {
				j.order = append(j.order[:i], j.order[i+1:]...)
				delete(j.terminal, old)
				j.evicted = append(j.evicted, old)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
}

// closed reports whether ch is closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestJournalEvictionMatchesShiftOracle drives a few thousand random
// open/close interleavings of consecutive IDs, as the gateway opens them,
// through a 64-entry journal: after every step the journal's ID sequence
// equals the slice-shift oracle's, no open entry is ever evicted, an evicted
// ID has no Done channel, a closed entry's is already closed, and the
// terminal counter stays exact — with stretches where more than 64 jobs are
// open at once, so the still-open-head fallback and the over-cap journal
// both run. Every third open entry gets a waiter, and the waiter map is
// empty once everything is closed.
func TestJournalEvictionMatchesShiftOracle(t *testing.T) {
	const maxRecords = 64
	j := newJournal(maxRecords)
	oracle := &shiftJournal{max: maxRecords, terminal: map[int64]bool{}}
	rng := sim.NewRNG(17)
	var open []int64
	waiters := map[int64]<-chan struct{}{}
	overCap := false
	for step := 0; step < 6000; step++ {
		// Phases of 500 steps alternate between completing eagerly and
		// letting the open set grow past the cap.
		pSubmit := 0.5
		if (step/500)%3 == 2 {
			pSubmit = 0.9
		}
		switch {
		case len(open) == 0 || rng.Float64() < pSubmit:
			id := j.next
			e := j.open(&Job{ID: id}, 0)
			e.route = j.intern("node0")
			oracle.add(id)
			if rng.Float64() < 0.9 {
				e.flags.Set(rowAccepted, true)
				open = append(open, id)
				if id%3 == 0 {
					waiters[id] = j.done(id)
				}
			} else {
				j.close(id, e, verify.FleetRejected) // rejected at admission: terminal on arrival
				oracle.terminal[id] = true
			}
		default:
			k := rng.Intn(len(open))
			if rng.Float64() < 0.5 {
				k = 0 // oldest first, the common order
			}
			id := open[k]
			if !j.close(id, j.lookup(id), verify.FleetDone) {
				t.Fatalf("step %d: first close of job %d reported a duplicate", step, id)
			}
			if !closed(j.done(id)) {
				t.Fatalf("step %d: Done of closed job %d is not closed", step, id)
			}
			oracle.terminal[id] = true
			open = append(open[:k], open[k+1:]...)
		}

		jobs := j.fleetJobs()
		got := make([]int64, len(jobs))
		for i, fj := range jobs {
			got[i] = fj.ID
		}
		checkTerminalCount(t, &j)
		if !reflect.DeepEqual(got, oracle.order) {
			t.Fatalf("step %d: journal order diverged from the slice-shift oracle\n got %v\nwant %v", step, got, oracle.order)
		}
		for _, id := range open {
			if j.lookup(id) == nil {
				t.Fatalf("step %d: open job %d was evicted", step, id)
			}
		}
		for _, id := range oracle.evicted {
			if j.done(id) != nil {
				t.Fatalf("step %d: evicted job %d still has a Done channel", step, id)
			}
		}
		oracle.evicted = oracle.evicted[:0]
		if len(got) > maxRecords {
			overCap = true
		}
	}
	if !overCap {
		t.Error("the open set never pushed the journal over its cap: the fallback path did not run")
	}
	for _, id := range open {
		j.close(id, j.lookup(id), verify.FleetDone)
		if j.close(id, j.lookup(id), verify.FleetDone) {
			t.Fatalf("second close of job %d won", id)
		}
	}
	for id, ch := range waiters {
		if !closed(ch) {
			t.Fatalf("job %d closed without waking its waiters", id)
		}
	}
	if len(j.waiters) != 0 {
		t.Errorf("%d waiters left once every job is closed", len(j.waiters))
	}
	checkTerminalCount(t, &j)
	if vs := verify.CheckFleetScaled(0, j.fleetJobs(), nil); len(vs) != 0 {
		t.Errorf("journal violations at quiescence: %v", vs)
	}
}

// livePages counts the journal's pages not yet freed.
func livePages(j *journal) int {
	n := 0
	for _, p := range j.pages {
		if p.rows != nil {
			n++
		}
	}
	return n
}

// TestJournalFreesPagesAroundAnOpenJob holds one job open, as a node that
// never answers for it would, across ten caps' worth of submissions. The
// journal must keep about a cap's worth of pages, not every page from the
// open job's onward, and drop the freed ones once the job closes.
func TestJournalFreesPagesAroundAnOpenJob(t *testing.T) {
	const bound = maxRecords/pageRows + 2
	j := newJournal(maxRecords)
	job := &Job{}
	submit := func() int64 {
		id := j.next
		job.ID = id
		j.open(job, 0)
		return id
	}
	closeJob := func(id int64) { j.close(id, j.lookup(id), verify.FleetDone) }
	pinned := submit()
	for i := 0; i < 10*maxRecords; i++ {
		closeJob(submit())
		if i%pageRows == 0 && livePages(&j) > bound {
			t.Fatalf("after %d submissions the journal holds %d pages, want at most %d", i+1, livePages(&j), bound)
		}
	}
	if j.lookup(pinned) == nil {
		t.Fatal("the open job was evicted")
	}
	if n := len(j.fleetJobs()); n != maxRecords {
		t.Fatalf("the journal keeps %d jobs, want %d", n, maxRecords)
	}
	if jobs := j.detach(-1); len(jobs) != 0 {
		t.Fatalf("detach of an unused index returned %d jobs", len(jobs))
	}
	if ids := j.newestTerminal(maxRecords); len(ids) != maxRecords-1 || ids[0] != j.next-1 {
		t.Fatalf("newestTerminal returned %d IDs, want the %d terminal ones", len(ids), maxRecords-1)
	}
	closeJob(pinned)
	for i := 0; i < pageRows; i++ {
		closeJob(submit())
	}
	if j.lookup(pinned) != nil || len(j.pages) > bound {
		t.Fatalf("after the open job closed the journal spans %d pages, want at most %d", len(j.pages), bound)
	}
	checkTerminalCount(t, &j)
}

// causeStub admits every job and reports it missed with a cause no other job
// shares, as a buggy or newer node could.
type causeStub struct{ instantStub }

func (causeStub) Submit(_ sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	done(Outcome{Terminal: verify.FleetDone, Cause: fmt.Sprintf("node-cause-%d", job.ID)})
	return Verdict{Accepted: true, RemoteID: job.ID}, nil
}

// TestNodeGivenCausesStayOutOfTheNameTable feeds the gateway more distinct
// node-given miss causes than the journal's name table could hold: they are
// reported verbatim, kept only while their job is retained, and the gateway
// keeps serving.
func TestNodeGivenCausesStayOutOfTheNameTable(t *testing.T) {
	clock := serve.NewManualClock()
	gw, err := New(Options{Backends: []Backend{causeStub{instantStub{"odd"}}}, Clock: clock, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1<<16 + 100
	for i := 0; i < n; i++ {
		if id, _, reason := gw.Submit(bench, bench.Deadline, Standard); reason != "" {
			t.Fatalf("job %d refused: %s", id, reason)
		}
	}
	if st, ok := gw.Status(n - 1); !ok || st.MissCause != fmt.Sprintf("node-cause-%d", n-1) {
		t.Fatalf("newest job's status = %+v, want its node-given cause", st)
	}
	gw.mu.Lock()
	names, causes := len(gw.journal.names), len(gw.journal.causes)
	gw.mu.Unlock()
	if names > 8 || causes != maxRecords {
		t.Errorf("name table holds %d names and the side map %d causes, want a handful and %d", names, causes, maxRecords)
	}
	if vs := gw.Check(clock.Now()); len(vs) != 0 {
		t.Fatalf("journal violations: %v", vs)
	}
}

// asyncStub admits every job and reports it from one of its worker
// goroutines, so completions land while other submissions have mu released
// in place.
type asyncStub struct {
	name string
	work chan func()
}

func (s *asyncStub) Name() string { return s.name }

func (s *asyncStub) Probe(sim.Time) (Headroom, error) {
	return Headroom{Capacity: 1, CapacityFrac: 1}, nil
}

func (s *asyncStub) Submit(_ sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	id := job.ID // done may fire, and the job be recycled, once it is queued
	s.work <- func() { done(Outcome{Terminal: verify.FleetDone, Met: id%5 != 0}) }
	return Verdict{Accepted: true, RemoteID: id}, nil
}

// TestJournalRowsStableUnderConcurrentCompletions runs three submitters
// across the journal's cap and dozens of page boundaries while stub nodes
// complete jobs on their own goroutines. A submission that lost track of
// its row across place would lose its acceptance or its terminal report, so
// the journal would fail Check or leave jobs in flight.
func TestJournalRowsStableUnderConcurrentCompletions(t *testing.T) {
	const submitters, perSubmitter = 3, (maxRecords + 3*pageRows) / 3
	var backends []Backend
	var stubs []*asyncStub
	var workers sync.WaitGroup
	for g := 0; g < 2; g++ {
		s := &asyncStub{name: fmt.Sprintf("stub%d", g), work: make(chan func(), 64)}
		stubs = append(stubs, s)
		for w := 0; w < 2; w++ {
			workers.Add(1)
			go func() {
				defer workers.Done()
				for f := range s.work {
					f()
				}
			}()
		}
		backends = append(backends, s)
	}
	clock := serve.NewManualClock()
	gw, err := New(Options{Backends: backends, Clock: clock, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var waited []<-chan struct{}
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				id, _, reason := gw.Submit(bench, bench.Deadline, Standard)
				if reason != "" {
					t.Errorf("job %d refused: %s", id, reason)
					return
				}
				if id%97 == 0 {
					ch := gw.Done(id)
					mu.Lock()
					waited = append(waited, ch)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range stubs {
		close(s.work) // every Submit has returned: the workers deliver the rest and stop
	}
	workers.Wait()

	if n := gw.Inflight(); n != 0 {
		t.Fatalf("%d jobs in flight after every completion was delivered", n)
	}
	if vs := gw.Check(clock.Now()); len(vs) != 0 {
		t.Fatalf("journal violations: %v", vs)
	}
	gw.mu.Lock()
	waiters, next := len(gw.journal.waiters), gw.journal.next
	gw.mu.Unlock()
	if waiters != 0 {
		t.Errorf("%d waiters left with every job terminal", waiters)
	}
	if next != submitters*perSubmitter || len(gw.FleetJobs()) != maxRecords {
		t.Errorf("journal issued %d IDs and keeps %d, want %d and %d", next, len(gw.FleetJobs()), submitters*perSubmitter, maxRecords)
	}
	for i, ch := range waited {
		if !closed(ch) {
			t.Fatalf("waited channel %d never closed", i)
		}
	}
	for _, fj := range gw.FleetJobs() {
		if !closed(gw.Done(fj.ID)) {
			t.Fatalf("Done of terminal job %d is not closed", fj.ID)
		}
	}
}

// reentrantStub completes every job at once, except job hook: the first
// time it is offered that job it runs during instead, while place has mu
// released, and then accepts it (or refuses it at admission, when refuse is
// set) without completing it.
type reentrantStub struct {
	instantStub
	hook   int64
	refuse bool
	during func(done func(Outcome))
}

func (s *reentrantStub) Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	id := job.ID // read before during completes the job
	if id != s.hook || s.during == nil {
		return s.instantStub.Submit(now, job, done)
	}
	during := s.during
	s.during = nil
	during(done)
	if s.refuse {
		return Verdict{Retry: sim.Millisecond}, nil
	}
	return Verdict{Accepted: true, RemoteID: id}, nil
}

// rowID returns the ID whose row e is, by its address, or -1 when e is in
// no page of j.
func rowID(j *journal, e *entry) int64 {
	for k, p := range j.pages {
		if p.rows == nil || e == nil {
			continue
		}
		off := uintptr(unsafe.Pointer(e)) - uintptr(unsafe.Pointer(&p.rows[0]))
		if off < unsafe.Sizeof(*p.rows) {
			return j.base + int64(k*pageRows) + int64(off/unsafe.Sizeof(*e))
		}
	}
	return -1
}

// TestHeldRowReopenedForANewerJob: a submission or a failover that offers a
// job to a node releases mu, and meanwhile the job can complete, its row be
// evicted and its page reopened for a newer job. What the dispatch then
// records of the old job must not land in the newer job's row: no second
// dispatch, no duplicate report, no foreign remote ID, nothing in flight.
func TestHeldRowReopenedForANewerJob(t *testing.T) {
	stem, err := workload.FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		failover bool // job 0 is orphaned by node0's death and offered to the survivor
		refuse   bool // the survivor refuses it: a CPU fallback
	}{
		{"submit", false, false},
		{"failover", true, false},
		{"failover fallback", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dying := &fakeBackend{name: "node0", h: Headroom{Capacity: 1, CapacityFrac: 1}, verdict: Verdict{Accepted: true}}
			survivor := &reentrantStub{instantStub: instantStub{"node1"}, refuse: tc.refuse}
			backends := []Backend{survivor}
			if tc.failover {
				backends = []Backend{dying, survivor}
			}
			clock := serve.NewManualClock()
			gw, err := New(Options{Backends: backends, Clock: clock, Seed: 5, FailThreshold: 1})
			if err != nil {
				t.Fatal(err)
			}
			gw.TickProbes(0)
			submit := func() {
				if _, _, reason := gw.Submit(stem, stem.Deadline, Standard); reason != "" {
					t.Errorf("submission refused: %s", reason)
				}
			}

			// during completes job 0 and floods the gateway until its row
			// holds a newer job. The gateway is idle but for this goroutine,
			// so the journal is read without mu.
			var held *entry
			survivor.during = func(done func(Outcome)) {
				held = gw.journal.row(0)
				if tc.failover {
					dying.dones[0](Outcome{Terminal: verify.FleetDone, Met: true}) // the late completion
				} else {
					done(Outcome{Terminal: verify.FleetDone, Met: true})
				}
				for n := 0; rowID(&gw.journal, held) <= 0 || held.flags.Has(rowEvicted); n++ {
					if n > 2*maxRecords {
						t.Error("job 0's page was never reopened")
						return
					}
					submit()
				}
			}
			submit()
			if tc.failover {
				if len(dying.dones) != 1 {
					t.Fatalf("node0 was offered %d jobs, want job 0 alone", len(dying.dones))
				}
				dying.probeErr = fmt.Errorf("node0 is down")
				gw.TickProbes(sim.Millisecond)
			}

			heldID := rowID(&gw.journal, held)
			if held == nil || heldID <= 0 {
				t.Fatal("job 0's row was not reopened while it was being offered")
			}
			if dups := gw.journal.duplicates[heldID]; held.terminal == 0 || held.backend != int16(len(backends)-1) || held.remoteID != heldID || dups != 0 {
				t.Errorf("job %d, reopened in job 0's row: terminal=%d backend=%d remoteID=%d duplicates=%d; want done on node1, its own remote ID, no duplicates",
					heldID, held.terminal, held.backend, held.remoteID, dups)
			}
			for _, fj := range gw.FleetJobs() {
				if fj.ID == 0 {
					t.Fatal("job 0 is still retained")
				}
				if len(fj.Dispatches) != 1 || fj.Duplicates != 0 {
					t.Fatalf("job %d: dispatches %v, %d duplicates; want one dispatch, none", fj.ID, fj.Dispatches, fj.Duplicates)
				}
			}
			for _, n := range gw.Loads() {
				if n.Inflight != 0 {
					t.Errorf("%s counts %d jobs in flight, want 0", n.Name, n.Inflight)
				}
			}
			if fs := gw.Fleet(); fs.Inflight != 0 || fs.Duplicates != 0 {
				t.Errorf("fleet: %d in flight, %d duplicates; want 0 and 0", fs.Inflight, fs.Duplicates)
			}
			if vs := gw.Check(clock.Now()); len(vs) != 0 {
				t.Fatalf("journal violations: %v", vs)
			}
		})
	}
}

// TestWideValuesLeaveWithTheirRows journals ten caps' worth of jobs whose
// deadline does not fit a row and that each get a duplicate report: the
// wide map and the duplicate counts keep only the retained rows'.
func TestWideValuesLeaveWithTheirRows(t *testing.T) {
	const max = 64
	j := newJournal(max)
	for i := 0; i < 10*max; i++ {
		id := j.next
		j.close(id, j.open(&Job{ID: id, Deadline: 5 * sim.Second}, 0), verify.FleetDone)
		j.duplicates[id]++ // as settle counts a late report
	}
	if j.wide.Len() != max || len(j.duplicates) != max {
		t.Errorf("the journal keeps %d wide rows and %d duplicate counts, want %d each", j.wide.Len(), len(j.duplicates), max)
	}
	if e := j.lookup(j.next - 1); j.deadline(j.next-1, e) != 5*sim.Second {
		t.Errorf("the newest job's deadline reads %v, want 5s", j.deadline(j.next-1, e))
	}
}
