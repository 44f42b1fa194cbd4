package gateway

import (
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
)

// entry is one journal row: everything the gateway must remember to keep
// its no-lost-jobs promise for one submission.
type entry struct {
	job        *Job
	accepted   bool
	terminal   string
	met        bool
	fellBack   bool
	latencyUs  int64
	reason     string
	retryUs    int64
	cause      string // miss-cause verdict (metrics taxonomy); "" while open or met
	dispatches []string
	backend    int // routing index of the live dispatch; -1 when none
	remoteID   int64
	duplicates int
	submitAt   sim.Time
	spans      []obs.WireSpan // gateway-side events, times relative to submitAt
	done       chan struct{}
}

// span appends one gateway-side instant event to the entry's timeline.
func (e *entry) span(now sim.Time, name, detail string) {
	at := float64(now-e.submitAt) / float64(sim.Microsecond)
	e.spans = append(e.spans, obs.WireSpan{
		Kind: obs.SpanEvent, Name: name, Node: "laxgw",
		StartUs: at, EndUs: at, Detail: detail,
	})
}

// journal is the no-lost-jobs ledger: every submission in arrival order,
// bounded by evicting the oldest terminal entries. It owns the one terminal
// transition and knows nothing about the fleet beyond the routing index an
// entry carries. Not safe for concurrent use: Gateway.mu guards it.
type journal struct {
	max     int
	entries map[int64]*entry
	order   []int64 // exactly the keys of entries, in arrival order

	// terminals counts the entries that have a terminal state: bumped by
	// close, dropped where such an entry is evicted.
	terminals int
}

func newJournal(max int) journal {
	return journal{max: max, entries: make(map[int64]*entry)}
}

// open journals a new submission, evicting the oldest terminal entries past
// the cap. Non-terminal entries are never evicted.
func (j *journal) open(job *Job, now sim.Time) *entry {
	e := &entry{job: job, backend: -1, submitAt: now, done: make(chan struct{})}
	j.entries[job.ID] = e
	j.order = append(j.order, job.ID)
	for len(j.order) > j.max {
		i := 0
		for i < len(j.order) {
			if j.entries[j.order[i]].terminal != "" {
				break
			}
			i++
		}
		if i == len(j.order) {
			break // every entry is still open: the journal runs over its cap
		}
		id := j.order[i]
		if i == 0 {
			// The usual case, O(1): move the slice head. append copies the
			// live entries to a fresh array once per quarter-cap of submits.
			j.order = j.order[1:]
		} else {
			j.order = append(j.order[:i], j.order[i+1:]...)
		}
		j.terminals--
		delete(j.entries, id)
	}
	return e
}

// close moves e to a terminal state and wakes its waiters. Only the first
// report wins: close reports false, changing nothing, for an entry that is
// already terminal.
func (j *journal) close(e *entry, terminal string) bool {
	if e.terminal != "" {
		return false
	}
	e.terminal = terminal
	j.terminals++
	close(e.done)
	return true
}

// detach collects the accepted, still-open entries dispatched to routing
// index g, in ID order, and clears their dispatch: the caller re-homes them.
func (j *journal) detach(g int) []*entry {
	var out []*entry
	for _, id := range j.order {
		if e := j.entries[id]; e.accepted && e.terminal == "" && e.backend == g {
			e.backend = -1
			out = append(out, e)
		}
	}
	return out
}

// newestTerminal returns the IDs of the newest n terminal entries, newest
// first.
func (j *journal) newestTerminal(n int) []int64 {
	var ids []int64
	for i := len(j.order) - 1; i >= 0 && len(ids) < n; i-- {
		if j.entries[j.order[i]].terminal != "" {
			ids = append(ids, j.order[i])
		}
	}
	return ids
}

// fleetJobs snapshots the journal as verify.FleetJob rows.
func (j *journal) fleetJobs() []verify.FleetJob {
	out := make([]verify.FleetJob, 0, len(j.order))
	for _, id := range j.order {
		e := j.entries[id]
		out = append(out, verify.FleetJob{
			ID:         id,
			Accepted:   e.accepted,
			Terminal:   e.terminal,
			Dispatches: append([]string(nil), e.dispatches...),
			Duplicates: e.duplicates,
			Spans:      append([]obs.WireSpan(nil), e.spans...),
		})
	}
	return out
}
