// Package serve runs the paper's admission controller (Algorithm 1) and
// laxity scheduler (Algorithm 2) as an online service: the same cp.System
// and sched policies that power the simulator, driven by a wall clock
// instead of a pre-scheduled trace, fronted by an HTTP API.
//
// The layering is deliberate:
//
//   - Clock abstracts "what simulated time is it" away from "how long do I
//     wait": WallClock maps real time onto the simulation timeline at a
//     configurable speed factor.
//   - Node owns one cp.System in online mode and is clock-free — it only
//     ever sees simulated instants, so tests drive it deterministically and
//     the equivalence suite proves a replayed trace matches sim mode
//     job-for-job.
//   - Driver is the lock around a Node's (single-threaded) simulation —
//     callers run on their own goroutine with it held — plus the pacer that
//     runs events falling due on the Clock when nobody is calling.
//   - Server is the HTTP frontend: admission verdicts as status codes,
//     per-job records, server-sent events, Prometheus metrics, graceful
//     drain.
package serve

import (
	"sync"
	"time"

	"laxgpu/internal/sim"
)

// Clock maps between simulated time and the caller's real timeline. Now is
// monotonically non-decreasing. Implementations must be safe for concurrent
// use.
type Clock interface {
	// Now returns the current simulated instant.
	Now() sim.Time

	// Until returns how long the caller must really wait for the simulated
	// instant t to arrive (zero if it already passed).
	Until(t sim.Time) time.Duration
}

// WallClock maps wall-clock time onto the simulation timeline: simulated
// time zero is the moment the clock was created, and simulated time advances
// speed× as fast as real time. Speed 1 is real time; larger factors compress
// wall time (a speed-100 clock fits 1 s of simulated load into 10 ms of
// wall time), which is how the test suite exercises seconds of traffic in
// milliseconds.
type WallClock struct {
	start time.Time
	speed float64
}

// NewWallClock returns a wall clock starting at simulated time zero, with
// the given speed factor (values <= 0 mean real time).
func NewWallClock(speed float64) *WallClock {
	if speed <= 0 {
		speed = 1
	}
	return &WallClock{start: time.Now(), speed: speed}
}

// Now implements Clock.
func (c *WallClock) Now() sim.Time {
	return sim.Time(float64(time.Since(c.start)) * c.speed)
}

// Until implements Clock.
func (c *WallClock) Until(t sim.Time) time.Duration {
	d := time.Duration(float64(t-c.Now()) / c.speed)
	if d < 0 {
		return 0
	}
	return d
}

// ManualClock is a Clock that only moves when told to — the deterministic
// replacement for WallClock in tests: drivers paced by it advance their
// nodes exactly to the instants the test sets, and Until reports an hour
// for any future instant so a pacer parks instead of busy-waiting (callers
// run what is due themselves).
type ManualClock struct {
	mu  sync.Mutex
	now sim.Time
}

// NewManualClock returns a manual clock at simulated time zero.
func NewManualClock() *ManualClock { return &ManualClock{} }

// Now implements Clock.
func (c *ManualClock) Now() sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Set moves the clock to t. Time never goes backwards: earlier instants are
// ignored, matching the Clock contract.
func (c *ManualClock) Set(t sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// Until implements Clock: one hour for any future instant (a parked pacer
// re-checks when the hour elapses), zero for instants already reached.
func (c *ManualClock) Until(t sim.Time) time.Duration {
	if t <= c.Now() {
		return 0
	}
	return time.Hour
}

// Every calls tick(clock.Now()) once per wall interval (50ms when every is
// not positive) from one goroutine, until the returned stop is called. stop
// returns once that goroutine has exited and may be called more than once.
// The gateway's health prober and the autoscaler's control loop both run on
// it.
func Every(clock Clock, every time.Duration, tick func(now sim.Time)) (stop func()) {
	if every <= 0 {
		every = 50 * time.Millisecond
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				tick(clock.Now())
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
