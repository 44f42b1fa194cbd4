package sim

import (
	"fmt"
)

// Event is a scheduled callback. Events fire in (At, seq) order: events
// scheduled for the same instant fire in the order they were scheduled,
// which keeps multi-component simulations deterministic.
//
// Event structs are pooled: once an event fires (or a cancelled event is
// discarded) the engine recycles the struct for a future Schedule call.
// Model code therefore never holds a *Event — Schedule returns a Handle,
// which detects recycling through a generation counter and degrades to a
// no-op once stale.
type Event struct {
	At   Time
	fn   func()
	act  Action
	seq  uint64
	gen  uint32
	dead bool // cancelled
}

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
		h.ev.dead = true
	}
}

// Cancelled reports whether the handle's event will never fire: it was
// cancelled, or it already fired and the struct was recycled. A zero Handle
// reports true.
func (h Handle) Cancelled() bool {
	return h.ev == nil || h.ev.gen != h.gen || h.ev.dead
}

// eventLess orders events by (At, seq) ascending.
func eventLess(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// heapQueue is a hand-specialized binary min-heap over (At, seq). It
// replaces container/heap on the engine's hottest path: the sift loops are
// direct slice operations with no interface dispatch or any-boxing.
type heapQueue struct{ h []*Event }

func (q *heapQueue) push(e *Event) {
	h := append(q.h, e)
	// Sift up.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.h = h
}

func (q *heapQueue) pop() *Event {
	h := q.h
	n := len(h)
	if n == 0 {
		return nil
	}
	top := h[0]
	n--
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	q.h = h
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			m = r
		}
		if !eventLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

func (q *heapQueue) peek() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}
func (q *heapQueue) len() int { return len(q.h) }

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
	heap    heapQueue
	free    []*Event // recycled event structs
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
// engine's (At, seq) fire order.
func (e *Engine) NextSeq() uint64 { return e.nextSeq }

// Pending returns the number of events currently queued (including
// cancelled events that have not yet been discarded).
func (e *Engine) Pending() int { return e.heap.len() }

// alloc takes an event struct from the free list (or allocates the first
// time) and stamps it with the next sequence number.
func (e *Engine) alloc(at Time) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.At = at
	ev.seq = e.nextSeq
	ev.dead = false
	e.nextSeq++
	return ev
}

// recycle returns a popped event struct to the free list. The generation
// bump invalidates every outstanding Handle to it; the payload references
// are dropped so pooled structs never pin closures or actions.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.act = nil
	e.free = append(e.free, ev)
}

// Schedule queues fn to run at absolute time at. Scheduling in the past
// panics: it indicates a model bug that would silently corrupt causality.
func (e *Engine) Schedule(at Time, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.alloc(at)
	ev.fn = fn
	e.heap.push(ev)
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
	e.heap.push(ev)
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

// fire advances the clock to ev, recycles the struct, and invokes the
// payload. Recycling first is deliberate: the callback may schedule new
// events, and letting them reuse the just-fired struct is what makes the
// steady-state hot path allocation-free.
func (e *Engine) fire(ev *Event) {
	e.now = ev.At
	e.fired++
	fn, act := ev.fn, ev.act
	e.recycle(ev)
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
		ev := e.heap.pop()
		if ev == nil {
			return false
		}
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.fire(ev)
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
	for {
		head := e.heap.peek()
		if head == nil {
			return 0, false
		}
		if head.dead {
			e.recycle(e.heap.pop())
			continue
		}
		return head.At, true
	}
}

// RunBefore executes events with timestamps strictly before limit and then
// sets the clock to limit. Unlike RunUntil, events scheduled AT limit stay
// queued: work injected at the new now (e.g. an online arrival) is therefore
// ordered ahead of them, matching sim mode, where arrivals are scheduled
// before any device event and so win the same-instant seq tie-break. It
// reports the number of events fired.
func (e *Engine) RunBefore(limit Time) uint64 {
	if e.running {
		panic("sim: RunBefore called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	start := e.fired
	if e.pollInterrupt() {
		return 0
	}
	stride := 0
	for {
		head := e.heap.peek()
		if head == nil || head.At >= limit {
			break
		}
		ev := e.heap.pop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.fire(ev)
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

// RunUntil executes events with timestamps <= limit and then sets the clock
// to limit (if it has not already passed it). Events beyond the horizon stay
// queued. It reports the number of events fired.
func (e *Engine) RunUntil(limit Time) uint64 {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	start := e.fired
	if e.pollInterrupt() {
		return 0
	}
	stride := 0
	for {
		head := e.heap.peek()
		if head == nil || head.At > limit {
			break
		}
		ev := e.heap.pop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.fire(ev)
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
