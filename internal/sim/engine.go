package sim

import (
	"fmt"
)

// Event is one scheduled payload. Events fire in (time, seq) order: events
// scheduled for the same instant fire in the order they were scheduled,
// which keeps multi-component simulations deterministic. The heap holds
// each event's time and arena slot; the payload and the sequence number
// live here, in the engine's event arena.
//
// Event structs are pooled: once an event fires (or a cancelled event is
// discarded) the engine recycles its slot for a future Schedule call. Model
// code therefore never holds an *Event — Schedule returns a Handle, which
// detects recycling through a generation counter and degrades to a no-op
// once stale.
type Event struct {
	fn   func()
	act  Action
	seq  uint64 // schedule order: breaks ties between same-instant events
	gen  uint32 // generation; the cancelled bit marks a cancelled event
	next int32  // 1 + the next free slot, while this one is free
}

// cancelled is the generation bit Cancel sets. A Handle holds the
// generation without it, so a cancelled event's handles read stale at once.
const cancelled = 1 << 31

// Action is the closure-free scheduling payload: components that schedule
// one event per unit of work (e.g. a workgroup completion) implement Act on
// a pooled struct and pass it to ScheduleAct, avoiding a closure allocation
// per event.
type Action interface {
	Act()
}

// Handle names one scheduled event. The zero Handle is valid and inert.
// Handles are values: copy them freely, compare against the zero value to
// test "never scheduled".
type Handle struct {
	ev  *Event
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled, or a zero Handle) is a no-op: the engine
// recycles fired event structs, and a stale handle — one whose generation no
// longer matches the struct's — deliberately does nothing.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.gen |= cancelled
	}
}

// entry is one heap element: an event's firing time and its arena slot. It
// holds no pointer, so the sift loops move plain 16-byte values and the
// garbage collector's write barrier never sees them.
type entry struct {
	at   Time
	slot int32
}

// chunkEvents is the number of events in one arena chunk. Chunks never
// move, so a Handle may point into one.
const chunkEvents = 64

// event returns the event in a slot.
func (e *Engine) event(slot int32) *Event {
	return &e.chunks[slot/chunkEvents][slot%chunkEvents]
}

// before orders entries by (time, seq), ascending. Only a tie on time reads
// the arena.
func (e *Engine) before(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return e.event(a.slot).seq < e.event(b.slot).seq
}

// push and pop are a hand-specialized binary min-heap over (time, seq): the
// sift loops are direct slice operations with no interface dispatch or
// any-boxing.
func (e *Engine) push(en entry) {
	h := append(e.heap, en)
	// Sift up.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

func (e *Engine) pop() (entry, bool) {
	h := e.heap
	n := len(h)
	if n == 0 {
		return entry{}, false
	}
	top := h[0]
	n--
	h[0] = h[n]
	h = h[:n]
	e.heap = h
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e.before(h[r], h[l]) {
			m = r
		}
		if !e.before(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top, true
}

// interruptStride is the number of events executed between interrupt-check
// polls during Run/RunUntil. Checking every event would put a closure call
// on the hottest loop in the simulator; a stride keeps the overhead
// unmeasurable while still bounding cancellation latency to a few hundred
// events.
const interruptStride = 64

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model components run inside event callbacks on the
// same goroutine, mirroring how a cycle-level simulator advances time.
// External cancellation (e.g. a context) reaches the event loop through
// SetInterrupt.
type Engine struct {
	now     Time
	nextSeq uint64
	heap    []entry
	chunks  []*[chunkEvents]Event // the event arena
	slots   int32                 // arena slots handed out so far
	free    int32                 // 1 + the first free slot; 0 when none
	fired   uint64
	running bool

	interrupt   func() bool
	interrupted bool
}

// NewEngine returns an engine with the clock at time zero and no pending
// events.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset readies a drained engine for a new run: the clock, the sequence
// numbers and the fired count go back to zero and the interrupt check is
// removed, while the event arena, its free list and the heap's capacity are
// kept, so the run starts with the storage the last one grew. Generations
// are never reset: every Handle from before stays stale. It panics on an
// engine with events still queued or a run in progress — their events
// would fire in the new run.
func (e *Engine) Reset() {
	if len(e.heap) != 0 || e.running {
		panic(fmt.Sprintf("sim: Reset with %d events queued", len(e.heap)))
	}
	e.now, e.nextSeq, e.fired = 0, 0, 0
	e.interrupt, e.interrupted = nil, false
}

// Now returns the current simulated time. Inside an event callback it is the
// time the event was scheduled for.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far, a useful progress and
// complexity metric for tests and benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }

// NextSeq returns the sequence number the next scheduled event will get.
// Components that batch same-instant work (e.g. workgroup completions) use
// it to prove no foreign event was interleaved since the batch was opened,
// which is exactly the condition under which batching preserves the
// engine's (time, seq) fire order.
func (e *Engine) NextSeq() uint64 { return e.nextSeq }

// Pending returns the number of events currently queued (including
// cancelled events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.heap) }

// alloc takes a slot from the free list (or a new one, growing the arena a
// chunk at a time), stamps its event with the next sequence number, queues
// it at the given time and returns the event.
func (e *Engine) alloc(at Time) *Event {
	var slot int32
	if e.free > 0 {
		slot = e.free - 1
		e.free = e.event(slot).next
	} else {
		slot = e.slots
		if slot%chunkEvents == 0 {
			e.chunks = append(e.chunks, new([chunkEvents]Event))
		}
		e.slots++
	}
	ev := e.event(slot)
	ev.seq = e.nextSeq
	e.nextSeq++
	e.push(entry{at: at, slot: slot})
	return ev
}

// recycle returns a popped slot to the free list. The generation bump (which
// also clears the cancelled bit) invalidates every outstanding Handle to its
// event; the payload references are dropped so pooled structs never pin
// closures or actions.
func (e *Engine) recycle(slot int32) {
	ev := e.event(slot)
	ev.gen = (ev.gen&^cancelled + 1) &^ cancelled
	ev.fn = nil
	ev.act = nil
	ev.next = e.free
	e.free = slot + 1
}

// Schedule queues fn to run at absolute time at. Scheduling in the past
// panics: it indicates a model bug that would silently corrupt causality.
func (e *Engine) Schedule(at Time, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.alloc(at)
	ev.fn = fn
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleAct queues a to run at absolute time at. It is Schedule for
// pooled model objects: passing a pointer through the Action interface does
// not allocate, where an equivalent closure would.
func (e *Engine) ScheduleAct(at Time, a Action) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.alloc(at)
	ev.act = a
	return Handle{ev: ev, gen: ev.gen}
}

// After queues fn to run delay after the current time. A non-positive delay
// runs the callback at the current instant, after already-queued events for
// this instant.
func (e *Engine) After(delay Time, fn func()) Handle {
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, fn)
}

// fire advances the clock to the entry, recycles its slot, and invokes the
// payload. Recycling first is deliberate: the callback may schedule new
// events, and letting them reuse the just-fired slot is what makes the
// steady-state hot path allocation-free.
func (e *Engine) fire(en entry) {
	e.now = en.at
	e.fired++
	ev := e.event(en.slot)
	fn, act := ev.fn, ev.act
	e.recycle(en.slot)
	if act != nil {
		act.Act()
	} else {
		fn()
	}
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	for {
		en, ok := e.pop()
		if !ok {
			return false
		}
		if e.event(en.slot).gen&cancelled != 0 {
			e.recycle(en.slot)
			continue
		}
		e.fire(en)
		return true
	}
}

// SetInterrupt installs a check polled every interruptStride events during
// Run and RunUntil; when it returns true the run stops early with the queue
// intact and Interrupted reporting true. The check also runs once before
// the first event, so a run that is cancelled before it starts executes no
// events. Pass nil to remove the check. The check must be cheap and must
// not touch engine state.
func (e *Engine) SetInterrupt(check func() bool) {
	e.interrupt = check
	e.interrupted = false
}

// Interrupted reports whether the most recent Run or RunUntil stopped early
// because the installed interrupt check fired.
func (e *Engine) Interrupted() bool { return e.interrupted }

// pollInterrupt evaluates the interrupt check, recording a stop.
func (e *Engine) pollInterrupt() bool {
	if e.interrupt != nil && e.interrupt() {
		e.interrupted = true
		return true
	}
	return false
}

// Run executes events until the queue drains. Model components typically
// keep the queue non-empty while work remains, so Run naturally terminates
// when the simulated system quiesces — or early, if an interrupt check is
// installed and fires.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	if e.pollInterrupt() {
		return
	}
	stride := 0
	for e.Step() {
		if stride++; stride >= interruptStride {
			stride = 0
			if e.pollInterrupt() {
				return
			}
		}
	}
}

// PeekTime returns the timestamp of the earliest pending live event.
// Cancelled events at the head of the queue are discarded in passing. The
// second return is false when no live events remain. Real-time frontends use
// this to decide how long to sleep before the next batch of simulated work.
func (e *Engine) PeekTime() (Time, bool) {
	for len(e.heap) > 0 {
		head := e.heap[0]
		if e.event(head.slot).gen&cancelled == 0 {
			return head.at, true
		}
		e.pop()
		e.recycle(head.slot)
	}
	return 0, false
}

// RunBefore executes events with timestamps strictly before limit and then
// sets the clock to limit. Unlike RunUntil, events scheduled AT limit stay
// queued, so work injected at the new now (e.g. a job's arrival) is ordered
// ahead of them. It reports the number of events fired.
func (e *Engine) RunBefore(limit Time) uint64 {
	if e.running {
		panic("sim: RunBefore called reentrantly")
	}
	return e.runTo(limit, false)
}

// RunUntil executes events with timestamps <= limit and then sets the clock
// to limit (if it has not already passed it). Events beyond the horizon stay
// queued. It reports the number of events fired.
func (e *Engine) RunUntil(limit Time) uint64 {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	return e.runTo(limit, true)
}

// runTo is RunBefore (events at limit stay queued) and RunUntil (inclusive:
// they fire).
func (e *Engine) runTo(limit Time, inclusive bool) uint64 {
	e.running = true
	defer func() { e.running = false }()
	start := e.fired
	if e.pollInterrupt() {
		return 0
	}
	stride := 0
	for len(e.heap) > 0 {
		head := e.heap[0]
		if head.at > limit || (head.at == limit && !inclusive) {
			break
		}
		e.pop()
		if e.event(head.slot).gen&cancelled != 0 {
			e.recycle(head.slot)
			continue
		}
		e.fire(head)
		if stride++; stride >= interruptStride {
			stride = 0
			if e.pollInterrupt() {
				return e.fired - start
			}
		}
	}
	if e.now < limit {
		e.now = limit
	}
	return e.fired - start
}
