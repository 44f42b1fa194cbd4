package gateway

import (
	"fmt"

	"laxgpu/internal/ledger"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
)

// entry is one journal row: everything the gateway must remember to keep its
// no-lost-jobs promise for one submission, in 48 B. It holds no pointers, so
// a page of rows is an object the collector never scans. Its ID is its place
// in the pages, so it keeps none. Names are indexes into the journal's
// intern table (0 is ""), the dispatch chain and gateway spans are rendered
// from the row when read, and the narrow numbers are ledger-encoded: a value
// that does not fit waits in the journal's wide map.
type entry struct {
	remoteID           int64
	submitAt           sim.Time
	deadline           uint32 // ns
	latencyUs, retryUs uint32
	drainUs            uint32 // the routed-to member's probed drain, for the route span
	backend            int16  // routing index of the live dispatch; -1 when none
	bench, route       uint16
	terminal, reason   uint16
	cause              uint16 // miss-cause verdict in the metrics taxonomy; 0 while open or met, or if outside it
	class              uint8
	flags              ledger.Flags
}

// The flags of an entry.
const (
	rowAccepted ledger.Flags = 1 << iota
	rowMet
	rowFellBack
	rowEvicted // only ever set on a terminal row
)

// The ledger.Wide field index of each narrow number of an entry.
const (
	wideDeadline = iota
	wideLatency
	wideRetry
	wideDrain
)

// maxSpareJobs bounds the freed job slot arrays the journal keeps. Two
// cover a page that settles as it fills, before the next one opens, while
// the spare from the page before it is still unused.
const maxSpareJobs = 2

// pageRows is the rows per journal page. A page freed by eviction is reopened
// for newer jobs, so an *entry is valid only while mu is held: a caller that
// releases mu looks the row up again by ID.
const pageRows = 1024

// page holds pageRows consecutive rows and, while any of them is open, each
// open row's job. A full page hands its job slots back at its last close,
// and its rows once every row is evicted: an open job pins one page. The
// journal keeps the last rows it freed, and up to maxSpareJobs freed job
// slot arrays, for the next pages it opens, so a journal at its cap
// allocates no pages, and a settled page costs its rows alone.
type page struct {
	rows *[pageRows]entry
	jobs *[pageRows]*Job // nil once every row of a full page is terminal
	live int32           // rows not evicted
	open int32           // rows not terminal
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
	max       int
	pages     []page            // pages[0] is the oldest page not yet freed
	spareRows *[pageRows]entry  // the last rows freed, kept for the next page
	spareJobs []*[pageRows]*Job // job slots settled pages handed back, all nil

	// base is the first ID of pages[0] and next the ID open expects. Every
	// retained row below cursor is open, so eviction resumes there.
	base, next, cursor int64

	// retained counts the rows not evicted; terminals the retained rows
	// that have a terminal state.
	retained, terminals int

	// free holds the Jobs of closed rows for the next submissions (see
	// maxFreeJobs and Gateway.newJob).
	free []*Job

	names      []string
	index      map[string]uint16
	wide       ledger.Wide             // numbers a row's narrow fields cannot hold
	duplicates map[int64]int           // jobs with late or duplicate reports only
	hops       map[int64][]hop         // failed-over jobs only
	causes     map[int64]string        // node-given miss causes outside the metrics taxonomy
	waiters    map[int64]chan struct{} // open jobs someone waits on
}

func newJournal(max int) journal {
	return journal{
		max:        max,
		names:      []string{""},
		index:      map[string]uint16{"": 0},
		duplicates: map[int64]int{},
		hops:       map[int64][]hop{},
		causes:     map[int64]string{},
		waiters:    map[int64]chan struct{}{},
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

// page returns the page holding id.
func (j *journal) page(id int64) *page { return &j.pages[(id-j.base)/pageRows] }

// row returns id's row, or nil once its page is freed.
func (j *journal) row(id int64) *entry {
	if p := j.page(id); p.rows != nil {
		return &p.rows[(id-j.base)%pageRows]
	}
	return nil
}

// job is id's slot beside its row: its job while open, nil once closed.
func (j *journal) job(id int64) **Job {
	return &j.page(id).jobs[(id-j.base)%pageRows]
}

// lookup returns the retained entry of id, or nil.
func (j *journal) lookup(id int64) *entry {
	if id >= j.base && id < j.next {
		if e := j.row(id); e != nil && !e.flags.Has(rowEvicted) {
			return e
		}
	}
	return nil
}

// nextRetained returns the first retained entry at or after id, and its ID,
// skipping freed pages whole, or nil.
func (j *journal) nextRetained(id int64) (int64, *entry) {
	for id = max(id, j.base); id < j.next; id++ {
		if e := j.row(id); e == nil {
			id += pageRows - 1 - (id-j.base)%pageRows
		} else if !e.flags.Has(rowEvicted) {
			return id, e
		}
	}
	return 0, nil
}

// deadline returns the relative deadline of id's row e.
func (j *journal) deadline(id int64, e *entry) sim.Time {
	return sim.Time(j.wide.Get(id, wideDeadline, e.deadline))
}

// routed records that id's row e was first dispatched to member, whose
// probed drain was drain.
func (j *journal) routed(id int64, e *entry, member string, drain sim.Time) {
	e.route, e.drainUs = j.intern(member), j.wide.Put(id, wideDrain, usOf(drain))
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
		p := page{rows: j.spareRows}
		if j.spareRows = nil; p.rows == nil {
			p.rows = new([pageRows]entry)
		}
		if n := len(j.spareJobs); n > 0 {
			p.jobs, j.spareJobs[n-1], j.spareJobs = j.spareJobs[n-1], nil, j.spareJobs[:n-1]
		} else {
			p.jobs = new([pageRows]*Job)
		}
		j.pages = append(j.pages, p)
	}
	p := &j.pages[len(j.pages)-1]
	p.live++
	p.open++
	e := j.row(job.ID)
	*e = entry{
		submitAt: now, deadline: j.wide.Put(job.ID, wideDeadline, int64(job.Deadline)), backend: -1,
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
	for id, e := j.nextRetained(j.cursor); e != nil; id, e = j.nextRetained(id + 1) {
		if e.terminal == 0 {
			continue
		}
		e.flags.Set(rowEvicted, true)
		j.wide.Drop(id)
		delete(j.duplicates, id)
		delete(j.hops, id)
		delete(j.causes, id)
		j.retained--
		j.terminals--
		p := j.page(id)
		if p.live--; p.live == 0 {
			// The newest page always holds the open row just journaled, so
			// this one is full and handed its job slots back at its last
			// close; open writes each row whole before it is read.
			j.spareRows, *p = p.rows, page{}
		}
		for len(j.pages) > 0 && j.pages[0].rows == nil {
			j.pages, j.base = j.pages[1:], j.base+pageRows
		}
		j.cursor = id + 1
		return true
	}
	j.cursor = j.next
	return false
}

// close moves id's row e to a terminal state, recycles its job unless it was
// detached, and wakes its waiters. Only the first report wins: close reports
// false, changing nothing, for an entry that is already terminal. The last
// close on a full page hands its job slots, all nil, to the spares.
func (j *journal) close(id int64, e *entry, terminal string) bool {
	if e.terminal != 0 {
		return false
	}
	e.terminal = j.intern(terminal)
	j.terminals++
	slot := j.job(id)
	if job := *slot; !job.detached && len(j.free) < maxFreeJobs {
		*job = Job{done: job.done} // a free Job pins no kernel chain
		j.free = append(j.free, job)
	}
	*slot = nil
	p := j.page(id)
	if p.open--; p.open == 0 && (id-j.base)/pageRows < (j.next-j.base)/pageRows { // a full page
		if len(j.spareJobs) < maxSpareJobs {
			j.spareJobs = append(j.spareJobs, p.jobs)
		}
		p.jobs = nil
	}
	if id < j.cursor {
		j.cursor = id
	}
	if _, ok := j.waiters[id]; ok {
		close(j.waiters[id])
		delete(j.waiters, id)
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
	for id, e := j.nextRetained(j.base); e != nil; id, e = j.nextRetained(id + 1) {
		if e.flags.Has(rowAccepted) && e.terminal == 0 && int(e.backend) == g {
			e.backend = -1
			job := *j.job(id)
			job.detached = true
			jobs = append(jobs, job)
		}
	}
	return jobs
}

// failedOver records one failover step of id's row e: the dispatch to, and
// a gateway event at now.
func (j *journal) failedOver(id int64, e *entry, to string, now sim.Time, name, detail string) {
	at := float64(now-e.submitAt) / float64(sim.Microsecond)
	j.hops[id] = append(j.hops[id], hop{to, gatewaySpan(at, name, detail)})
}

func gatewaySpan(at float64, name, detail string) obs.WireSpan {
	return obs.WireSpan{Kind: obs.SpanEvent, Name: name, Node: "laxgw", StartUs: at, EndUs: at, Detail: detail}
}

// dispatches renders the dispatch chain of id's row e: the routed-to
// member, then each failover step's.
func (j *journal) dispatches(id int64, e *entry) (out []string) {
	if e.route != 0 {
		out = append(out, j.names[e.route])
	}
	for _, h := range j.hops[id] {
		out = append(out, h.to)
	}
	return out
}

// spans renders the gateway-side events of id's row e, times relative to
// its submission: the route at 0, then each failover step's.
func (j *journal) spans(id int64, e *entry) (out []obs.WireSpan) {
	if e.route != 0 {
		drain := sim.Time(j.wide.Get(id, wideDrain, e.drainUs)) * sim.Microsecond
		detail := routeDetail(j.names[e.route], drain, e.flags.Has(rowAccepted))
		out = append(out, gatewaySpan(0, obs.EventRoute, detail))
	}
	for _, h := range j.hops[id] {
		out = append(out, h.span)
	}
	return out
}

// missCause renders the miss cause of id's row e, from the name table or,
// for a node-given cause outside the metrics taxonomy, from beside the row.
func (j *journal) missCause(id int64, e *entry) string {
	if c, ok := j.causes[id]; ok {
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
		} else if !e.flags.Has(rowEvicted) && e.terminal != 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// fleetJobs snapshots the journal as verify.FleetJob rows.
func (j *journal) fleetJobs() []verify.FleetJob {
	out := make([]verify.FleetJob, 0, j.retained)
	for id, e := j.nextRetained(j.base); e != nil; id, e = j.nextRetained(id + 1) {
		out = append(out, verify.FleetJob{
			ID:         id,
			Accepted:   e.flags.Has(rowAccepted),
			Terminal:   j.names[e.terminal],
			Dispatches: j.dispatches(id, e),
			Duplicates: j.duplicates[id],
			Spans:      j.spans(id, e),
		})
	}
	return out
}
