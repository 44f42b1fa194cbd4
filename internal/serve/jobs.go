package serve

import (
	"fmt"
	"sync"

	"laxgpu/internal/ledger"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// JobStatus is a snapshot of one submitted job, as served on
// GET /v1/jobs/{id} and on the event stream.
type JobStatus struct {
	// ID is the server-wide job identifier.
	ID int64 `json:"id"`

	// Benchmark names the workload the job belongs to.
	Benchmark string `json:"benchmark"`

	// State is the job's pipeline state: "admitted" until a terminal
	// transition, then "done", "cancelled" or "rejected".
	State string `json:"state"`

	// Admitted reports the Algorithm 1 verdict.
	Admitted bool `json:"admitted"`

	// MetDeadline reports whether a finished job completed by its deadline.
	MetDeadline bool `json:"met_deadline"`

	// FellBack reports that the job completed on the CPU fallback path
	// (recovery or forced drain), not the GPU.
	FellBack bool `json:"fell_back"`

	// DeadlineUs is the job's relative deadline in microseconds.
	DeadlineUs int64 `json:"deadline_us"`

	// LatencyUs is arrival-to-finish in simulated microseconds (finished
	// jobs only).
	LatencyUs int64 `json:"latency_us,omitempty"`

	// RetryAfterUs is the predicted queue-drain time handed to rejected
	// jobs, in simulated microseconds.
	RetryAfterUs int64 `json:"retry_after_us,omitempty"`

	// Reason is the machine-readable reject reason (the Reason* constants)
	// for jobs that never ran; empty for accepted jobs.
	Reason string `json:"reason,omitempty"`

	// TraceID is the job's W3C trace ID: adopted from the submitter's
	// traceparent header when present, minted otherwise. The full timeline
	// is served on GET /v1/jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`

	// MissCause is the dominant-cause verdict for jobs that missed their
	// deadline (the metrics.ClassifyMiss taxonomy); empty while running and
	// for jobs that met it.
	MissCause string `json:"miss_cause,omitempty"`
}

// row is one job's record: everything GET /v1/jobs/{id}, the event stream
// and the terminal bookkeeping need, rendered into a JobStatus on read, in
// 36 B. It holds no pointers, so a page of rows is an object the collector
// never scans. Its ID is its place in the pages, so it keeps none. Names are
// indexes into the table's name table, the trace ID is kept as the 16 bytes
// the handler parsed or minted, rendered as hex on read, and the numbers are
// ledger-encoded: a value that does not fit waits in the table's wide map.
type row struct {
	trace                          obs.TraceID // zero when the job has no trace ID
	deadlineUs, latencyUs, retryUs uint32
	bench, state                   uint8
	reason, cause                  uint8
	flags                          ledger.Flags
}

// The flags of a row.
const (
	recAdmitted ledger.Flags = 1 << iota
	recMet
	recFellBack
	recTerminal // the first terminal transition happened
	recSettled  // and its bookkeeping is done: evictable
	recEvicted  // only ever set on a settled row
)

// The ledger.Wide field index of each narrow number of a row.
const (
	wideDeadline = iota
	wideLatency
	wideRetry
)

// maxRecords bounds a server's job-status registry.
const maxRecords = 65536

// pageRows is the rows per record page. A page freed by eviction is reopened
// for newer jobs, so a *row is valid only while the table's mu is held.
const pageRows = 1024

// page holds pageRows consecutive rows; it is freed (rows nil) once every
// row is evicted. The table keeps the last page it freed as the next one it
// opens, so a table at its cap allocates no pages.
type page struct {
	rows *[pageRows]row
	live int // rows not evicted
}

// closedDone is the done channel of every settled record.
var closedDone = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()

// recordTable is the bounded registry of submitted jobs, in the gateway
// journal's shape: rows in fixed pages found by id − base, because IDs are
// dense. Past max the oldest settled record is evicted — long-running
// servers keep memory flat and clients are expected to read outcomes
// promptly (or listen on the event stream). A record still running is never
// evicted, as in the journal: its status stays addressable until it has an
// outcome to lose.
type recordTable struct {
	mu    sync.Mutex
	max   int
	pages []page // pages[0] is the oldest page not yet freed
	spare *[pageRows]row

	// base is the first ID of pages[0] and next the ID add expects. Every
	// retained row below cursor is unsettled, so eviction resumes there.
	base, next, cursor int64
	retained           int // rows not evicted

	names   []string
	index   map[string]uint8
	wide    ledger.Wide             // numbers a row's narrow fields cannot hold
	clients map[int64]string        // the submitting client, until the terminal transition
	waiters map[int64]chan struct{} // unsettled records someone waits on
}

func newRecordTable(max int) *recordTable {
	return &recordTable{
		max:     max,
		names:   []string{""},
		index:   map[string]uint8{"": 0},
		clients: map[int64]string{},
		waiters: map[int64]chan struct{}{},
	}
}

// intern returns the index of name in the name table. Callers pass only
// closed sets: benchmarks, states, reasons, the miss taxonomy.
func (t *recordTable) intern(name string) uint8 {
	if i, ok := t.index[name]; ok {
		return i
	}
	if len(t.names) > 0xff {
		panic("serve: record name table is full")
	}
	i := uint8(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = i
	return i
}

// lookup returns the retained row of id, or nil.
func (t *recordTable) lookup(id int64) *row {
	if id < t.base || id >= t.next {
		return nil
	}
	k := id - t.base
	if p := t.pages[k/pageRows]; p.rows != nil && !p.rows[k%pageRows].flags.Has(recEvicted) {
		return &p.rows[k%pageRows]
	}
	return nil
}

// nextRetained returns the first retained row at or after id, and its ID,
// skipping freed pages whole, or nil.
func (t *recordTable) nextRetained(id int64) (int64, *row) {
	for id = max(id, t.base); id < t.next; id++ {
		k := id - t.base
		if p := t.pages[k/pageRows]; p.rows == nil {
			id += pageRows - 1 - k%pageRows
		} else if !p.rows[k%pageRows].flags.Has(recEvicted) {
			return id, &p.rows[k%pageRows]
		}
	}
	return 0, nil
}

// add records a new submission, evicting the oldest settled records past
// the cap. IDs must be consecutive. traceID may be zero; client is kept
// until the terminal transition hands it back.
func (t *recordTable) add(id int64, bench string, deadlineUs int64, traceID obs.TraceID, client string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id != t.next {
		panic(fmt.Sprintf("serve: record added with ID %d, want %d", id, t.next))
	}
	if t.next-t.base == int64(len(t.pages))*pageRows {
		rows := t.spare
		if t.spare = nil; rows == nil {
			rows = new([pageRows]row)
		}
		t.pages = append(t.pages, page{rows: rows})
	}
	p := &t.pages[len(t.pages)-1]
	p.live++
	r := &p.rows[(id-t.base)%pageRows]
	*r = row{deadlineUs: t.wide.Put(id, wideDeadline, deadlineUs), trace: traceID, bench: t.intern(bench), state: t.intern("submitted")}
	t.clients[id] = client
	t.next++
	t.retained++
	for t.retained > t.max && t.evictOldestSettled() {
	}
}

// evictOldestSettled evicts the oldest retained settled row, reporting false
// when none is: the table then runs over its cap. A page is freed with its
// last row, and dropped once no live page is older.
func (t *recordTable) evictOldestSettled() bool {
	for id, r := t.nextRetained(t.cursor); r != nil; id, r = t.nextRetained(id + 1) {
		if !r.flags.Has(recSettled) {
			continue
		}
		r.flags.Set(recEvicted, true)
		t.wide.Drop(id)
		t.retained--
		p := &t.pages[(id-t.base)/pageRows]
		if p.live--; p.live == 0 {
			t.spare, *p = p.rows, page{}
		}
		for len(t.pages) > 0 && t.pages[0].rows == nil {
			t.pages, t.base = t.pages[1:], t.base+pageRows
		}
		t.cursor = id + 1
		return true
	}
	t.cursor = t.next
	return false
}

// status renders id's row r.
func (t *recordTable) status(id int64, r *row) JobStatus {
	return JobStatus{
		ID:           id,
		Benchmark:    t.names[r.bench],
		State:        t.names[r.state],
		Admitted:     r.flags.Has(recAdmitted),
		MetDeadline:  r.flags.Has(recMet),
		FellBack:     r.flags.Has(recFellBack),
		DeadlineUs:   t.wide.Get(id, wideDeadline, r.deadlineUs),
		LatencyUs:    t.wide.Get(id, wideLatency, r.latencyUs),
		RetryAfterUs: t.wide.Get(id, wideRetry, r.retryUs),
		Reason:       t.names[r.reason],
		TraceID:      r.trace.String(),
		MissCause:    t.names[r.cause],
	}
}

// apply runs fn on the rendered status of id's row r and keeps what fn may
// change: the verdict and outcome fields, never the job's identity.
func (t *recordTable) apply(id int64, r *row, fn func(*JobStatus)) JobStatus {
	st := t.status(id, r)
	fn(&st)
	r.state, r.reason, r.cause = t.intern(st.State), t.intern(st.Reason), t.intern(st.MissCause)
	r.flags.Set(recAdmitted, st.Admitted)
	r.flags.Set(recMet, st.MetDeadline)
	r.flags.Set(recFellBack, st.FellBack)
	r.latencyUs = t.wide.Put(id, wideLatency, st.LatencyUs)
	r.retryUs = t.wide.Put(id, wideRetry, st.RetryAfterUs)
	return st
}

// get returns a snapshot of the record's status.
func (t *recordTable) get(id int64) (JobStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.lookup(id); r != nil {
		return t.status(id, r), true
	}
	return JobStatus{}, false
}

// update mutates an open record's status and returns it.
func (t *recordTable) update(id int64, fn func(*JobStatus)) JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.lookup(id); r != nil {
		return t.apply(id, r, fn)
	}
	return JobStatus{}
}

// finish mutates a record's status at a terminal transition and reports
// whether this call made it terminal; that call also gets the submitting
// client back. Its caller does the outcome's bookkeeping, then settles the
// record.
func (t *recordTable) finish(id int64, fn func(*JobStatus)) (st JobStatus, client string, first bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.lookup(id)
	if r == nil {
		return JobStatus{}, "", false
	}
	st = t.apply(id, r, fn)
	if r.flags.Has(recTerminal) {
		return st, "", false
	}
	r.flags.Set(recTerminal, true)
	client = t.clients[id]
	delete(t.clients, id)
	return st, client, true
}

// settle marks a terminal record's bookkeeping done: its waiters wake, and
// it may be evicted.
func (t *recordTable) settle(id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.lookup(id); r != nil {
		r.flags.Set(recSettled, true)
		t.cursor = min(t.cursor, id)
	}
	if ch, ok := t.waiters[id]; ok {
		close(ch)
		delete(t.waiters, id)
	}
}

// done returns a channel closed once id's record is settled, creating a
// waiter for an unsettled one. A record no longer retained was settled
// before it was evicted.
func (t *recordTable) done(id int64) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.lookup(id); r == nil || r.flags.Has(recSettled) {
		return closedDone
	}
	ch := t.waiters[id]
	if ch == nil {
		ch = make(chan struct{})
		t.waiters[id] = ch
	}
	return ch
}

func usOf(t sim.Time) int64 { return int64(t / sim.Microsecond) }
