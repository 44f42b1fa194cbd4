package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refEngine is the event queue as it was before the heap held values: a
// binary heap of pooled *refEvent ordered by (At, seq), each event carrying
// its own payload. It is the fire-order reference for
// TestEngineMatchesPointerHeapReference and is kept deliberately plain.
type refEngine struct {
	now     Time
	nextSeq uint64
	h       []*refEvent
	free    []*refEvent
	fired   uint64
}

type refEvent struct {
	At   Time
	fn   func()
	act  Action
	seq  uint64
	gen  uint32
	dead bool
}

type refHandle struct {
	ev  *refEvent
	gen uint32
}

func (h refHandle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.dead = true
	}
}

func (h refHandle) Cancelled() bool { return h.ev == nil || h.ev.gen != h.gen || h.ev.dead }

func refLess(a, b *refEvent) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (e *refEngine) push(ev *refEvent) {
	h := append(e.h, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !refLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.h = h
}

func (e *refEngine) pop() *refEvent {
	h := e.h
	n := len(h)
	if n == 0 {
		return nil
	}
	top := h[0]
	n--
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.h = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && refLess(h[r], h[l]) {
			m = r
		}
		if !refLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

func (e *refEngine) schedule(at Time, fn func(), act Action) refHandle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	var ev *refEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &refEvent{}
	}
	ev.At, ev.seq, ev.dead, ev.fn, ev.act = at, e.nextSeq, false, fn, act
	e.nextSeq++
	e.push(ev)
	return refHandle{ev, ev.gen}
}

func (e *refEngine) recycle(ev *refEvent) {
	ev.gen++
	ev.fn, ev.act = nil, nil
	e.free = append(e.free, ev)
}

func (e *refEngine) fire(ev *refEvent) {
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

func (e *refEngine) Step() bool {
	for {
		ev := e.pop()
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

func (e *refEngine) Run() {
	for e.Step() {
	}
}

func (e *refEngine) PeekTime() (Time, bool) {
	for len(e.h) > 0 {
		if head := e.h[0]; !head.dead {
			return head.At, true
		}
		e.recycle(e.pop())
	}
	return 0, false
}

// runTo fires every live event before limit (through it when inclusive) and
// then moves the clock to limit: RunBefore and RunUntil.
func (e *refEngine) runTo(limit Time, inclusive bool) uint64 {
	start := e.fired
	for len(e.h) > 0 {
		head := e.h[0]
		if head.At > limit || (!inclusive && head.At == limit) {
			break
		}
		ev := e.pop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.fire(ev)
	}
	if e.now < limit {
		e.now = limit
	}
	return e.fired - start
}

// diffEngine is the surface the differential drives, over either engine.
type diffEngine struct {
	now       func() Time
	nextSeq   func() uint64
	pending   func() int
	schedule  func(at Time, fn func(), act Action) (cancel func(), cancelled func() bool)
	step      func() bool
	run       func()
	peek      func() (Time, bool)
	runBefore func(Time) uint64
	runUntil  func(Time) uint64
}

func realDiffEngine() diffEngine {
	e := NewEngine()
	return diffEngine{
		now: e.Now, nextSeq: e.NextSeq, pending: e.Pending,
		schedule: func(at Time, fn func(), act Action) (func(), func() bool) {
			var h Handle
			if act != nil {
				h = e.ScheduleAct(at, act)
			} else {
				h = e.Schedule(at, fn)
			}
			return h.Cancel, h.Cancelled
		},
		step: e.Step, run: e.Run, peek: e.PeekTime,
		runBefore: e.RunBefore, runUntil: e.RunUntil,
	}
}

func refDiffEngine() diffEngine {
	e := &refEngine{}
	return diffEngine{
		now:     func() Time { return e.now },
		nextSeq: func() uint64 { return e.nextSeq },
		pending: func() int { return len(e.h) },
		schedule: func(at Time, fn func(), act Action) (func(), func() bool) {
			h := e.schedule(at, fn, act)
			return h.Cancel, h.Cancelled
		},
		step: e.Step, run: e.Run, peek: e.PeekTime,
		runBefore: func(l Time) uint64 { return e.runTo(l, false) },
		runUntil:  func(l Time) uint64 { return e.runTo(l, true) },
	}
}

// churn drives one engine through a seeded schedule and logs everything the
// engine answers. Event k's behaviour when it fires is drawn from a generator
// seeded by k alone, so two engines that fire the same events in the same
// order are driven identically, and the first divergence shows in the log.
type churn struct {
	eng    diffEngine
	log    strings.Builder
	cancel []func()
	dead   []func() bool
	budget int
}

// event is an Action payload; firing it (as Action or through a closure)
// runs the same behaviour.
type event struct {
	c  *churn
	id int
}

func (ev *event) Act() { ev.c.fire(ev.id) }

func (c *churn) add(at Time) {
	id := len(c.cancel)
	ev := &event{c, id}
	var cancel func()
	var dead func() bool
	if id%2 == 0 {
		cancel, dead = c.eng.schedule(at, nil, ev)
	} else {
		cancel, dead = c.eng.schedule(at, func() { c.fire(id) }, nil)
	}
	c.cancel = append(c.cancel, cancel)
	c.dead = append(c.dead, dead)
}

func (c *churn) fire(id int) {
	now := c.eng.now()
	fmt.Fprintf(&c.log, "fire %d at %d seq %d pending %d\n", id, now, c.eng.nextSeq(), c.eng.pending())
	x := uint64(id)*0x9e3779b97f4a7c15 + 1
	draw := func(n int) int { // splitmix64: cheap, and a function of id alone
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return int((z ^ z>>31) % uint64(n))
	}
	for n := draw(3); n > 0 && c.budget > 0; n-- {
		c.budget--
		c.add(now + Time(draw(3))*Time(draw(4))) // often now: same-instant ties
	}
	if draw(3) == 0 {
		// Cancel any event: pending, already fired (a stale handle) or itself.
		k := draw(len(c.cancel))
		c.cancel[k]()
		fmt.Fprintf(&c.log, "  cancel %d -> %v\n", k, c.dead[k]())
	}
}

func (c *churn) drive(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	c.budget = 4000
	for op := 0; op < 600; op++ {
		now := c.eng.now()
		switch r := rng.Intn(10); {
		case r < 4:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				c.add(now + Time(rng.Intn(4))*Time(rng.Intn(8)))
			}
		case r < 5 && len(c.cancel) > 0:
			k := rng.Intn(len(c.cancel))
			c.cancel[k]()
			fmt.Fprintf(&c.log, "cancel %d -> %v\n", k, c.dead[k]())
		case r < 6:
			at, ok := c.eng.peek()
			fmt.Fprintf(&c.log, "peek %d %v pending %d\n", at, ok, c.eng.pending())
		case r < 7:
			lim := now + Time(rng.Intn(12))
			fmt.Fprintf(&c.log, "runBefore %d fired %d now %d\n", lim, c.eng.runBefore(lim), c.eng.now())
		case r < 8:
			lim := now + Time(rng.Intn(12))
			fmt.Fprintf(&c.log, "runUntil %d fired %d now %d\n", lim, c.eng.runUntil(lim), c.eng.now())
		default:
			fmt.Fprintf(&c.log, "step %v now %d\n", c.eng.step(), c.eng.now())
		}
	}
	c.eng.run()
	fmt.Fprintf(&c.log, "drained at %d pending %d\n", c.eng.now(), c.eng.pending())
	return c.log.String()
}

// TestEngineMatchesPointerHeapReference: over seeded random schedules —
// closures and Actions, same-instant ties, events scheduled from inside
// events, cancels of pending, fired and self events, PeekTime, RunBefore,
// RunUntil and Step — the engine fires the same events at the same instants
// with the same sequence numbers, pending counts and handle states as the
// pointer-heap reference.
func TestEngineMatchesPointerHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got := (&churn{eng: realDiffEngine()}).drive(seed)
		want := (&churn{eng: refDiffEngine()}).drive(seed)
		if got == want {
			continue
		}
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("seed %d line %d:\n  engine    %s\n  reference %s", seed, i, g[i], w[i])
			}
		}
		t.Fatalf("seed %d: engine logged %d lines, reference %d", seed, len(g), len(w))
	}
}
