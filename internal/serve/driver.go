package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"laxgpu/internal/sim"
)

// Driver paces one Node against a Clock. A mutex owns the node's
// (single-threaded) simulation and whoever holds it is the driver: Call runs
// on the caller's own goroutine, and the pacer — the one goroutine Start
// launches — takes the same lock whenever a simulated event falls due on the
// clock with no caller around to run it. The accept queue is the cap on
// callers waiting for or holding the lock; one more is backpressure the
// frontend surfaces as 503.
type Driver struct {
	node  *Node
	clock Clock

	queue   int64
	callers atomic.Int64 // waiting for or holding mu

	mu      sync.Mutex
	stopped bool        // the drain has run; Call refuses, the pacer exits
	armed   sim.Time    // the instant timer is set for; never when it is not
	timer   *time.Timer // wakes the pacer; Reset only with mu held

	shutdown sync.Once     // the drain runs once
	done     chan struct{} // closed when the pacer has exited
}

// never is later than every simulated instant: the pacer is not armed.
const never = sim.Time(math.MaxInt64)

// NewDriver wraps node with a lock paced by clock. queue bounds the accept
// queue (callers waiting for or holding the node); values < 1 default to 64.
func NewDriver(node *Node, clock Clock, queue int) *Driver {
	if queue < 1 {
		queue = 64
	}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	return &Driver{
		node:  node,
		clock: clock,
		queue: int64(queue),
		armed: never,
		timer: timer,
		done:  make(chan struct{}),
	}
}

// Node returns the driven node; only a Call closure may touch it.
func (d *Driver) Node() *Node { return d.node }

// Start launches the pacer; without it simulated time moves only inside Call.
func (d *Driver) Start() { go d.pace() }

// Call takes the node and runs fn on the caller's goroutine, with every
// event strictly before the current clock instant executed first and every
// event due at that instant after, so nothing due is pending when it
// returns. It reports false — and does not run fn — when the accept queue is
// full or the driver has stopped: the caller's backpressure signal. Completion
// callbacks fire with the node held; one that calls Call on its own driver
// deadlocks.
func (d *Driver) Call(fn func()) bool {
	defer d.callers.Add(-1)
	if d.callers.Add(1) > d.queue {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return false
	}
	now := d.clock.Now()
	d.node.AdvanceTo(now)
	fn()
	d.node.CatchUp(now) // or they wait forever on a clock that is not moving
	d.arm()
	return true
}

// arm sets the pacer's timer for the earliest pending event when that is
// sooner than what it is set for. Events only run with mu held, so armed is
// at or before the earliest pending event whenever mu is free. A timer left
// set for an event a caller already ran, or a fire racing the Reset (go.mod
// predates Go 1.23's timers), costs one empty pacer round, never a lost one.
func (d *Driver) arm() {
	if te, ok := d.node.NextEvent(); ok && te < d.armed {
		d.armed = te
		d.timer.Reset(d.clock.Until(te))
	}
}

// pace is the pacer goroutine: parked until the timer arm set fires, then
// one round of due events under the lock; Shutdown's last tick ends it.
func (d *Driver) pace() {
	defer close(d.done)
	for range d.timer.C {
		d.mu.Lock()
		if d.stopped {
			d.mu.Unlock()
			return
		}
		d.armed = never
		d.node.CatchUp(d.clock.Now())
		d.arm()
		d.mu.Unlock()
	}
}

// Done returns a channel closed when the pacer has exited.
func (d *Driver) Done() <-chan struct{} { return d.done }

// Shutdown gracefully drains the node: callers that get the node first run
// to completion, later ones are refused; the node then keeps pacing until
// every in-flight job reaches a terminal state or grace expires, when the
// rest are forced off the GPU via the CPU-fallback path and the simulation
// runs to quiescence. It returns the number of jobs forced off. Callers must
// stop producing new work first; Start must have been called; repeats wait.
func (d *Driver) Shutdown(grace time.Duration) (forced int) {
	d.shutdown.Do(func() {
		deadline := time.Now().Add(grace)
		d.mu.Lock()
		forced = d.drain(deadline)
		d.stopped = true
		d.timer.Reset(0) // one more tick: the pacer sees stopped and exits
		d.mu.Unlock()
	})
	<-d.done
	return forced
}

// drain runs with the node held: paced execution until the node quiesces or
// the wall deadline passes, then CPU fallback for the jobs left, counted.
func (d *Driver) drain(deadline time.Time) int {
	for {
		d.node.CatchUp(d.clock.Now())
		if d.node.UnfinishedCount() == 0 {
			return 0
		}
		te, ok := d.node.NextEvent()
		if !ok {
			break // in-flight jobs but no events: only fallback can finish them
		}
		dur := d.clock.Until(te)
		if time.Now().Add(dur).After(deadline) {
			break // the next completion lands past the grace period
		}
		time.Sleep(dur)
	}
	return d.node.ForceDrain()
}
