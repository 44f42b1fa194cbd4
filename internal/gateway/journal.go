package gateway

import (
	"fmt"

	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
)

// entry is one journal row: everything the gateway must remember to keep its
// no-lost-jobs promise for one submission. It holds no pointers, so a page of
// rows is an object the collector never scans. Names are indexes into the
// journal's intern table (0 is ""), and the dispatch chain and gateway spans
// are rendered from the row when read.
type entry struct {
	id, remoteID            int64
	submitAt, deadline      sim.Time
	latencyUs, retryUs      int64
	drainUs                 int64 // the routed-to member's probed drain, for the route span
	backend, duplicates     int32 // backend: routing index of the live dispatch; -1 when none
	bench, route            uint16
	terminal, reason        uint16
	cause                   uint16 // miss-cause verdict in the metrics taxonomy; 0 while open or met, or if outside it
	class                   uint8
	accepted, met, fellBack bool
	evicted                 bool // only ever set on a terminal row
}

// pageRows is the rows per journal page. A page freed by eviction is reopened
// for newer jobs, so an *entry is valid only while mu is held: a caller that
// releases mu looks the row up again by ID.
const pageRows = 1024

// page holds pageRows consecutive rows and each open row's job. It is freed
// (rows and jobs nil) once every row is evicted: an open job pins one page.
// The journal keeps the last page it freed as the next one it opens, so a
// journal at its cap allocates no pages.
type page struct {
	rows *[pageRows]entry
	jobs *[pageRows]*Job
	live int // rows not evicted
}

// hop is one failover step of a journaled job: the dispatch it added and
// the gateway span that records it.
type hop struct {
	to   string
	span obs.WireSpan
}

// closedDone is the Done channel of every entry already terminal.
var closedDone = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()

// journal is the no-lost-jobs ledger: every submission in arrival order,
// bounded by evicting the oldest terminal entries. Rows live in fixed pages
// found by id − base, because IDs are dense. It owns the one terminal
// transition and knows nothing about the fleet beyond the routing index an
// entry carries. Not safe for concurrent use: Gateway.mu guards it.
type journal struct {
	max   int
	pages []page // pages[0] is the oldest page not yet freed
	spare page   // the last page freed, rows and jobs kept for the next open

	// base is the first ID of pages[0] and next the ID open expects. Every
	// retained row below cursor is open, so eviction resumes there.
	base, next, cursor int64

	// retained counts the rows not evicted; terminals the retained rows
	// that have a terminal state.
	retained, terminals int

	// free holds the Jobs of closed rows for the next submissions (see
	// maxFreeJobs and Gateway.newJob).
	free []*Job

	names   []string
	index   map[string]uint16
	hops    map[int64][]hop         // failed-over jobs only
	causes  map[int64]string        // node-given miss causes outside the metrics taxonomy
	waiters map[int64]chan struct{} // open jobs someone waits on
}

func newJournal(max int) journal {
	return journal{
		max:     max,
		names:   []string{""},
		index:   map[string]uint16{"": 0},
		hops:    map[int64][]hop{},
		causes:  map[int64]string{},
		waiters: map[int64]chan struct{}{},
	}
}

// intern returns the index of name in the journal's name table. Callers pass
// only closed sets (benchmarks, members, states, reasons, the miss taxonomy).
func (j *journal) intern(name string) uint16 {
	if i, ok := j.index[name]; ok {
		return i
	}
	if len(j.names) > 0xffff {
		panic("gateway: journal name table is full")
	}
	i := uint16(len(j.names))
	j.names = append(j.names, name)
	j.index[name] = i
	return i
}

// row returns id's row, or nil once its page is freed.
func (j *journal) row(id int64) *entry {
	k := id - j.base
	if p := &j.pages[k/pageRows]; p.rows != nil {
		return &p.rows[k%pageRows]
	}
	return nil
}

// job is id's slot beside its row: its job while open, nil once closed.
func (j *journal) job(id int64) **Job {
	k := id - j.base
	return &j.pages[k/pageRows].jobs[k%pageRows]
}

// lookup returns the retained entry of id, or nil.
func (j *journal) lookup(id int64) *entry {
	if id >= j.base && id < j.next {
		if e := j.row(id); e != nil && !e.evicted {
			return e
		}
	}
	return nil
}

// nextRetained returns the first retained entry at or after id, skipping
// freed pages whole, or nil.
func (j *journal) nextRetained(id int64) *entry {
	for id = max(id, j.base); id < j.next; id++ {
		if e := j.row(id); e == nil {
			id += pageRows - 1 - (id-j.base)%pageRows
		} else if !e.evicted {
			return e
		}
	}
	return nil
}

// maxFreeJobs bounds the recycled Jobs the journal keeps. Steady state needs
// as many as the jobs that settle between two arrivals; the bound only stops
// a burst of settlements from being kept past its end.
//
// A Job is recycled only at close, and only if it was never detached. A
// backend reads a Job only until its Submit returns or done fires, and done
// fires at most once per accepted dispatch, so the Job of a row that closed
// without failing over is nobody's. A detached job was dispatched to a node
// declared dead, which may still report it late through done; reused, the
// Job would carry that report to another submission, so the collector gets
// it instead.
const maxFreeJobs = 64

// open journals a new submission, evicting the oldest terminal entries past
// the cap. Non-terminal entries are never evicted. IDs must be consecutive.
func (j *journal) open(job *Job, now sim.Time) *entry {
	if job.ID != j.next {
		panic(fmt.Sprintf("gateway: journal opened ID %d, want %d", job.ID, j.next))
	}
	if j.next-j.base == int64(len(j.pages))*pageRows {
		p := j.spare
		if j.spare = (page{}); p.rows == nil {
			p = page{rows: new([pageRows]entry), jobs: new([pageRows]*Job)}
		}
		j.pages = append(j.pages, p)
	}
	j.pages[len(j.pages)-1].live++
	e := j.row(job.ID)
	*e = entry{
		id: job.ID, submitAt: now, deadline: job.Deadline, backend: -1,
		bench: j.intern(job.Benchmark), class: uint8(job.Class),
	}
	*j.job(job.ID) = job
	j.next++
	j.retained++
	for j.retained > j.max && j.evictOldestTerminal() {
	}
	return e
}

// evictOldestTerminal evicts the oldest retained terminal row, reporting
// false when every retained row is open: the journal then runs over its cap.
// A page is freed with its last row, and dropped once no live page is older.
func (j *journal) evictOldestTerminal() bool {
	for e := j.nextRetained(j.cursor); e != nil; e = j.nextRetained(e.id + 1) {
		if e.terminal == 0 {
			continue
		}
		e.evicted = true
		delete(j.hops, e.id)
		delete(j.causes, e.id)
		j.retained--
		j.terminals--
		p := &j.pages[(e.id-j.base)/pageRows]
		if p.live--; p.live == 0 {
			// Every row is terminal, so every job slot is already nil; open
			// writes each row whole before it is read.
			j.spare, *p = page{rows: p.rows, jobs: p.jobs}, page{}
		}
		for len(j.pages) > 0 && j.pages[0].rows == nil {
			j.pages, j.base = j.pages[1:], j.base+pageRows
		}
		j.cursor = e.id + 1
		return true
	}
	j.cursor = j.next
	return false
}

// close moves e to a terminal state, recycles its job unless it was detached,
// and wakes its waiters. Only the first report wins: close reports false,
// changing nothing, for an entry that is already terminal.
func (j *journal) close(e *entry, terminal string) bool {
	if e.terminal != 0 {
		return false
	}
	e.terminal = j.intern(terminal)
	j.terminals++
	slot := j.job(e.id)
	if job := *slot; !job.detached && len(j.free) < maxFreeJobs {
		*job = Job{done: job.done} // a free Job pins no kernel chain
		j.free = append(j.free, job)
	}
	*slot = nil
	if e.id < j.cursor {
		j.cursor = e.id
	}
	if _, ok := j.waiters[e.id]; ok {
		close(j.waiters[e.id])
		delete(j.waiters, e.id)
	}
	return true
}

// done returns the channel closed at id's terminal transition, creating a
// waiter for an open entry, or nil for an unknown or evicted ID.
func (j *journal) done(id int64) <-chan struct{} {
	if e := j.lookup(id); e == nil {
		return nil
	} else if e.terminal != 0 {
		return closedDone
	}
	if j.waiters[id] == nil {
		j.waiters[id] = make(chan struct{})
	}
	return j.waiters[id]
}

// detach collects the jobs of the accepted, still-open entries dispatched to
// routing index g, in ID order, clears their dispatch and marks each job
// detached, never to be recycled: the caller re-homes them.
func (j *journal) detach(g int) (jobs []*Job) {
	for e := j.nextRetained(j.base); e != nil; e = j.nextRetained(e.id + 1) {
		if e.accepted && e.terminal == 0 && int(e.backend) == g {
			e.backend = -1
			job := *j.job(e.id)
			job.detached = true
			jobs = append(jobs, job)
		}
	}
	return jobs
}

// failedOver records one failover step of e: the dispatch to, and a gateway
// event at now.
func (j *journal) failedOver(e *entry, to string, now sim.Time, name, detail string) {
	at := float64(now-e.submitAt) / float64(sim.Microsecond)
	j.hops[e.id] = append(j.hops[e.id], hop{to, gatewaySpan(at, name, detail)})
}

func gatewaySpan(at float64, name, detail string) obs.WireSpan {
	return obs.WireSpan{Kind: obs.SpanEvent, Name: name, Node: "laxgw", StartUs: at, EndUs: at, Detail: detail}
}

// dispatches renders e's dispatch chain: the routed-to member, then each
// failover step's.
func (j *journal) dispatches(e *entry) (out []string) {
	if e.route != 0 {
		out = append(out, j.names[e.route])
	}
	for _, h := range j.hops[e.id] {
		out = append(out, h.to)
	}
	return out
}

// spans renders e's gateway-side events, times relative to its submission:
// the route at 0, then each failover step's.
func (j *journal) spans(e *entry) (out []obs.WireSpan) {
	if e.route != 0 {
		detail := routeDetail(j.names[e.route], sim.Time(e.drainUs)*sim.Microsecond, e.accepted)
		out = append(out, gatewaySpan(0, obs.EventRoute, detail))
	}
	for _, h := range j.hops[e.id] {
		out = append(out, h.span)
	}
	return out
}

// missCause renders e's miss cause, from the name table or, for a node-given
// cause outside the metrics taxonomy, from beside the row.
func (j *journal) missCause(e *entry) string {
	if c, ok := j.causes[e.id]; ok {
		return c
	}
	return j.names[e.cause]
}

// newestTerminal returns the IDs of the newest n terminal entries, newest
// first.
func (j *journal) newestTerminal(n int) []int64 {
	var ids []int64
	for id := j.next - 1; id >= j.base && len(ids) < n; id-- {
		if e := j.row(id); e == nil {
			id -= (id - j.base) % pageRows // skip the freed page whole
		} else if !e.evicted && e.terminal != 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// fleetJobs snapshots the journal as verify.FleetJob rows.
func (j *journal) fleetJobs() []verify.FleetJob {
	out := make([]verify.FleetJob, 0, j.retained)
	for e := j.nextRetained(j.base); e != nil; e = j.nextRetained(e.id + 1) {
		out = append(out, verify.FleetJob{
			ID:         e.id,
			Accepted:   e.accepted,
			Terminal:   j.names[e.terminal],
			Dispatches: j.dispatches(e),
			Duplicates: int(e.duplicates),
			Spans:      j.spans(e),
		})
	}
	return out
}
