package obs

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"laxgpu/internal/sim"
)

// Perfetto process IDs: one synthetic process groups the per-queue kernel
// tracks, another groups the per-job laxity counter tracks, so the two
// stay visually separate in ui.perfetto.dev.
const (
	pidQueues = 1
	pidLaxity = 2
)

// rowKind names the Chrome trace event a row renders as.
type rowKind uint8

const (
	rowProcess    rowKind = iota // "M" process_name; job is the pid
	rowQueueName                 // "M" thread_name "queue <tid>"
	rowLaxityName                // "M" thread_name "laxity job <job>"
	rowJob                       // "i" lifecycle marker; seq is the JobEventKind, ns[1] the deadline
	rowAdmission                 // "i" Algorithm 1 verdict; ns[1:4] deadline, hold, queue delay
	rowLaxity                    // "C" laxity counter; ns[1] the laxity
	rowKernel                    // "X" kernel span; ns[1] the duration
	rowNodeName                  // "M" thread_name <str> on the fleet process
	rowFleet                     // "i" fleet event on node <str>; strs[seq:] name, detail
	rowTraceName                 // "M" thread_name "job <str> (<strs[seq]>)"
	rowSpan                      // "X" (flag) or "i" wire span <str>; us[1] the duration; strs[seq:] kind, node, detail
)

// row is one recorded trace event: fixed-size and holding one string, so a
// probe callback costs an append into the current chunk. A probe row keeps
// its times as the integer nanoseconds it was given (ns[0] is its ts); an
// export-time row (rowFleet, rowSpan) keeps the float microseconds it was
// given (us[0] is its ts).
type row struct {
	kind rowKind
	flag bool // met (rowJob), accepted (rowAdmission), complete (rowSpan)
	job  int
	tid  int
	seq  int
	ns   [4]sim.Time
	us   [2]float64
	str  string // kernel, node or span name
}

// rowsPerChunk rows share one allocation; chunks are never copied.
const rowsPerChunk = 512

// flushBytes is the size Write fills its buffer to before handing it to w.
const flushBytes = 32 << 10

// rowChunks recycles the chunks of released recorders, and writeBufs the
// buffer Write renders into. A sync.Pool keeps neither past two GC cycles.
var (
	rowChunks = sync.Pool{New: func() any { return new([rowsPerChunk]row) }}
	writeBufs = sync.Pool{New: func() any { b := make([]byte, 0, flushBytes+flushBytes/4); return &b }}
)

// Perfetto is a Probe that records a run as Chrome trace-event JSON,
// loadable in ui.perfetto.dev (or chrome://tracing): one track per GPU
// compute queue carrying kernel execution spans, one counter track per job
// carrying its laxity over time, and instant markers for job lifecycle
// transitions. Each event is kept as one typed row; Write renders the rows
// after the run.
type Perfetto struct {
	chunks []*[rowsPerChunk]row
	n      int
	strs   []string // export-time rows' second and later strings
	err    error    // first time JSON cannot carry, returned by Write

	queuesSeen idSet
	jobsSeen   idSet
	headerDone bool

	// Export-time track state (AddFleetEvents / AddWireTrace); untouched by
	// probe callbacks, so probe-only runs stay byte-identical.
	fleetTids map[string]int
	traceTid  int
}

// NewPerfetto returns an empty Perfetto recorder.
func NewPerfetto() *Perfetto { return &Perfetto{} }

// add appends a zeroed row of the given kind and returns it to fill in.
// Chunks come from rowChunks, so a row may hold a released recorder's
// event until add zeroes it.
func (p *Perfetto) add(kind rowKind) *row {
	i := p.n % rowsPerChunk
	if i == 0 {
		p.chunks = append(p.chunks, rowChunks.Get().(*[rowsPerChunk]row))
	}
	p.n++
	r := &p.chunks[len(p.chunks)-1][i]
	*r = row{kind: kind}
	return r
}

// Release hands the recorder's rows back for a later recorder to reuse and
// empties it. Call it only when nothing will read the recorder again: once
// its run is over and its trace written, by the recorder's one owner.
func (p *Perfetto) Release() {
	for i, c := range p.chunks {
		rowChunks.Put(c)
		p.chunks[i] = nil
	}
	*p = Perfetto{}
}

// header lazily emits the process-naming metadata once.
func (p *Perfetto) header() {
	if p.headerDone {
		return
	}
	p.headerDone = true
	p.add(rowProcess).job = pidQueues
	p.add(rowProcess).job = pidLaxity
}

// queueTrack names the queue's thread track on first sight.
func (p *Perfetto) queueTrack(queue int) {
	p.header()
	if queue < 0 || !p.queuesSeen.add(queue) {
		return
	}
	p.add(rowQueueName).tid = queue
}

// Job implements Probe: lifecycle transitions become instant markers on the
// job's queue track (global scope for queue-less events like reject).
func (p *Perfetto) Job(e JobEvent) {
	p.queueTrack(e.Queue)
	r := p.add(rowJob)
	r.job, r.tid, r.seq, r.flag = e.Job, e.Queue, int(e.Kind), e.Met
	r.ns[0], r.ns[1] = e.At, e.Deadline
}

// Admission implements Probe: rejected jobs with computed terms get a
// global instant carrying the Little's-Law verdict.
func (p *Perfetto) Admission(e AdmissionDecision) {
	if !e.HasTerms {
		return
	}
	p.header()
	r := p.add(rowAdmission)
	r.job, r.flag = e.Job, e.Accepted
	r.ns = [4]sim.Time{e.At, e.Deadline, e.HoldTime, e.QueueDelay}
}

// Epoch implements Probe (no events; epochs show through samples).
func (p *Perfetto) Epoch(EpochSnapshot) {}

// Sample implements Probe: laxity samples become one counter track per job.
func (p *Perfetto) Sample(e JobSample) {
	if !e.HasLaxity {
		return
	}
	p.header()
	if p.jobsSeen.add(e.Job) {
		p.add(rowLaxityName).job = e.Job
	}
	r := p.add(rowLaxity)
	r.job = e.Job
	r.ns[0], r.ns[1] = e.At, e.Laxity
}

// TableRefresh implements Probe (aggregated by Metrics, not drawn).
func (p *Perfetto) TableRefresh(TableRefresh) {}

// KernelStart implements Probe: ensures the queue's track exists before its
// first span lands.
func (p *Perfetto) KernelStart(e KernelStart) { p.queueTrack(e.Queue) }

// KernelDone implements Probe: the kernel's full execution becomes a
// complete span ("X") on its queue's track.
func (p *Perfetto) KernelDone(e KernelDone) {
	p.queueTrack(e.Queue)
	r := p.add(rowKernel)
	r.job, r.tid, r.seq, r.str = e.Job, e.Queue, e.Seq, e.Kernel
	r.ns[0], r.ns[1] = e.Start, e.At-e.Start
}

// Events returns the number of buffered trace events.
func (p *Perfetto) Events() int { return p.n }

// Write serializes the buffered trace as Chrome trace-event JSON: events in
// emission order, args keys sorted, numbers and strings in encoding/json's
// form. It renders into one pooled buffer, handed to w every flushBytes. A
// time JSON cannot carry (NaN or ±Inf, from an export-time event) fails
// Write before anything is written.
func (p *Perfetto) Write(w io.Writer) error {
	if p.err != nil {
		return p.err
	}
	if p.n == 0 {
		_, err := io.WriteString(w, "{\"traceEvents\":null,\"displayTimeUnit\":\"ms\"}\n")
		return err
	}
	buf := writeBufs.Get().(*[]byte)
	b, err := p.render(w, (*buf)[:0])
	if cap(b) <= 4*flushBytes {
		// A row with a huge string grew b past this: let that one go.
		*buf = b[:0]
		writeBufs.Put(buf)
	}
	return err
}

// render renders the trace into b, handing b to w every flushBytes, and
// returns b for reuse.
func (p *Perfetto) render(w io.Writer, b []byte) ([]byte, error) {
	b = append(b, `{"traceEvents":[`...)
	for i := range p.n {
		if i > 0 {
			b = append(b, ',')
		}
		b = p.appendRow(b, &p.chunks[i/rowsPerChunk][i%rowsPerChunk])
		if len(b) >= flushBytes {
			if _, err := w.Write(b); err != nil {
				return b, err
			}
			b = b[:0]
		}
	}
	b = append(b, "],\"displayTimeUnit\":\"ms\"}\n"...)
	_, err := w.Write(b)
	return b, err
}

// WriteFile writes the trace to a new file at path (laxgw and laxtrace
// -perfetto).
func (p *Perfetto) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// processNames labels each synthetic process, by pid.
var processNames = [...]string{
	pidQueues: "GPU queues",
	pidLaxity: "LAX laxity",
	pidFleet:  "fleet events",
	pidJobs:   "job traces",
}

// appendRow renders one row as a trace-event object with its fields in a
// fixed order (name, ph, ts, dur, pid, tid, cat, s, args), an empty dur,
// cat or s left out, and args keys sorted.
func (p *Perfetto) appendRow(b []byte, r *row) []byte {
	b = append(b, `{"name":`...)
	switch r.kind {
	case rowProcess:
		b = appendMeta(b, r, "process_name", r.job, 0)
		b = appendString(b, processNames[r.job])

	case rowQueueName:
		b = appendMeta(b, r, "thread_name", pidQueues, r.tid)
		b = append(b, `"queue `...)
		b = strconv.AppendInt(b, int64(r.tid), 10)
		b = append(b, '"')

	case rowLaxityName:
		b = appendMeta(b, r, "thread_name", pidLaxity, r.job)
		b = append(b, `"laxity job `...)
		b = strconv.AppendInt(b, int64(r.job), 10)
		b = append(b, '"')

	case rowNodeName:
		b = appendMeta(b, r, "thread_name", pidFleet, r.tid)
		b = appendString(b, r.str)

	case rowTraceName:
		b = appendMeta(b, r, "thread_name", pidJobs, r.tid)
		b = appendJoined(b, "job ", r.str, " (", p.strs[r.seq], ")")

	case rowJob:
		kind := JobEventKind(r.seq)
		b = append(b, `"job `...)
		b = strconv.AppendInt(b, int64(r.job), 10)
		b = append(b, ' ')
		b = append(b, kind.String()...)
		b = append(b, '"')
		tid, scope := r.tid, `,"cat":"job","s":"t","args":{`
		if tid < 0 {
			tid, scope = 0, `,"cat":"job","s":"g","args":{`
		}
		b = r.appendHead(b, "i", pidQueues, tid)
		b = append(b, scope...)
		if kind == JobArrive {
			b = append(b, `"deadline_us":`...)
			b = appendMicros(b, r.ns[1])
			b = append(b, ',')
		}
		b = append(b, `"job":`...)
		b = strconv.AppendInt(b, int64(r.job), 10)
		if kind == JobFinish {
			b = append(b, `,"met":`...)
			b = strconv.AppendBool(b, r.flag)
		}

	case rowAdmission:
		b = append(b, `"admit job `...)
		b = strconv.AppendInt(b, int64(r.job), 10)
		if r.flag {
			b = append(b, `: accept"`...)
		} else {
			b = append(b, `: reject"`...)
		}
		b = r.appendHead(b, "i", pidQueues, 0)
		b = append(b, `,"cat":"admission","s":"g","args":{"deadline_us":`...)
		b = appendMicros(b, r.ns[1])
		b = append(b, `,"hold_us":`...)
		b = appendMicros(b, r.ns[2])
		b = append(b, `,"queue_delay_us":`...)
		b = appendMicros(b, r.ns[3])

	case rowLaxity:
		b = append(b, `"laxity job `...)
		b = strconv.AppendInt(b, int64(r.job), 10)
		b = append(b, '"')
		b = r.appendHead(b, "C", pidLaxity, r.job)
		b = append(b, `,"args":{"laxity_us":`...)
		b = appendMicros(b, r.ns[1])

	case rowKernel:
		b = appendString(b, r.str)
		b = r.appendHead(b, "X", pidQueues, r.tid)
		b = append(b, `,"cat":"kernel","args":{"job":`...)
		b = strconv.AppendInt(b, int64(r.job), 10)
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, int64(r.seq), 10)

	case rowFleet:
		name, detail := p.strs[r.seq], p.strs[r.seq+1]
		b = appendJoined(b, name, " ", detail)
		b = r.appendHead(b, "i", pidFleet, r.tid)
		b = append(b, `,"cat":"fleet","s":"t","args":{"event":`...)
		b = appendString(b, name)
		b = append(b, `,"node":`...)
		b = appendString(b, r.str)

	case rowSpan:
		cat, node, detail := p.strs[r.seq], p.strs[r.seq+1], p.strs[r.seq+2]
		b = appendString(b, r.str)
		if r.flag {
			b = r.appendHead(b, "X", pidJobs, r.tid)
		} else {
			b = r.appendHead(b, "i", pidJobs, r.tid)
		}
		if cat != "" {
			b = append(b, `,"cat":`...)
			b = appendString(b, cat)
		}
		if !r.flag {
			b = append(b, `,"s":"t"`...)
		}
		b = append(b, `,"args":{`...)
		if detail != "" {
			b = append(b, `"detail":`...)
			b = appendString(b, detail)
			b = append(b, ',')
		}
		b = append(b, `"node":`...)
		b = appendString(b, node)
	}
	return append(b, "}}"...)
}

// appendMeta appends a metadata event's name and fields up to its one
// argument's value: the track or process name, which the caller appends.
func appendMeta(b []byte, r *row, what string, pid, tid int) []byte {
	b = append(b, '"')
	b = append(b, what...)
	b = append(b, '"')
	b = r.appendHead(b, "M", pid, tid)
	return append(b, `,"args":{"name":`...)
}

// appendHead appends the fields between name and cat: ph, the row's ts, for
// a span ("X") its duration when non-zero, pid and tid.
func (r *row) appendHead(b []byte, ph string, pid, tid int) []byte {
	b = append(b, `,"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","ts":`...)
	b = r.appendTime(b, 0)
	if ph == "X" && (r.ns[1] != 0 || r.us[1] != 0) {
		b = append(b, `,"dur":`...)
		b = r.appendTime(b, 1)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// appendTime appends the row's i-th time in microseconds.
func (r *row) appendTime(b []byte, i int) []byte {
	if r.kind == rowFleet || r.kind == rowSpan {
		return appendFloat(b, r.us[i])
	}
	return appendMicros(b, r.ns[i])
}

// appendMicros appends n nanoseconds as microseconds, the bytes
// appendFloat(float64(n)/1000) appends, with integer arithmetic: the
// integer part, then '.' and up to three digits with trailing zeros
// trimmed. Below 10^15 ns the quotient has at most 15 significant digits,
// which a float64 holds exactly and its shortest rendering gives back;
// from there on (MinInt64 included) it defers to appendFloat.
func appendMicros(b []byte, n sim.Time) []byte {
	if n <= -1e15 || n >= 1e15 {
		return appendFloat(b, float64(n)/float64(sim.Microsecond))
	}
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	b = strconv.AppendInt(b, int64(n/sim.Microsecond), 10)
	frac := n % sim.Microsecond
	if frac == 0 {
		return b
	}
	digits := [3]byte{byte('0' + frac/100), byte('0' + frac/10%10), byte('0' + frac%10)}
	k := len(digits)
	for digits[k-1] == '0' {
		k--
	}
	b = append(b, '.')
	return append(b, digits[:k]...)
}

// appendFloat formats a finite f as encoding/json does: the shortest 'f'
// form, or 'e' with a one-digit negative exponent cleaned of its zero
// (1e-07 → 1e-7) outside [1e-6, 1e21).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// checkFloat records the first time Write could not render, as the error
// encoding/json gave for it.
func (p *Perfetto) checkFloat(f float64) {
	if p.err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		p.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
}

// plain reports whether s is printable ASCII that JSON carries unescaped:
// no quote, backslash, or HTML-significant <, > and &.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendString appends s as a JSON string. Anything but plain text takes
// encoding/json's own escaping (HTML-safe, invalid UTF-8 replaced, U+2028
// and U+2029 escaped), so the two cannot drift.
func appendString(b []byte, s string) []byte {
	if !plain(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJoined appends the JSON string of the parts concatenated, building
// the concatenation only when a part needs escaping.
func appendJoined(b []byte, parts ...string) []byte {
	for _, s := range parts {
		if !plain(s) {
			return appendString(b, strings.Join(parts, ""))
		}
	}
	b = append(b, '"')
	for _, s := range parts {
		b = append(b, s...)
	}
	return append(b, '"')
}

// idSet is a set of IDs: a bitmap for the dense small non-negative IDs a
// run hands out, a map for any other.
type idSet struct {
	bits []uint64
	far  map[int]bool
}

// maxBitmapID bounds the bitmap (128 kB) against a stray huge ID.
const maxBitmapID = 1 << 20

// add inserts id and reports whether it was new.
func (s *idSet) add(id int) bool {
	if id < 0 || id >= maxBitmapID {
		if s.far[id] {
			return false
		}
		if s.far == nil {
			s.far = make(map[int]bool)
		}
		s.far[id] = true
		return true
	}
	w, bit := id/64, uint64(1)<<(id%64)
	// Grown a word at a time: append(bits, make(...)...) allocates the
	// made slice in -race builds, which turn that idiom's optimization off.
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	if s.bits[w]&bit != 0 {
		return false
	}
	s.bits[w] |= bit
	return true
}
