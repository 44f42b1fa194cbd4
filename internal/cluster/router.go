package cluster

import (
	"fmt"

	"laxgpu/internal/sim"
)

// Router makes front-end placement decisions one arrival at a time, under
// one of two models. Least-loaded (Split's) knows only static job-size
// estimates and its own bookkeeping of what it already sent where. Headroom
// (the gateway's) scores the queue-drain estimates the nodes report, plus
// what it sent since, weighted by the coarse per-device health the
// gateway's probes set (the fraction of compute capacity still alive after
// CU retirements). Both decide per arrival, without seeing the whole trace.
//
// Router is not safe for concurrent use; callers serialize Pick/SetHealth.
type Router struct {
	policy RoutingPolicy

	// outstanding estimates the device-time each GPU still owes for jobs
	// already routed to it (RouteLeastLoaded only), drained one
	// device-second per second between arrivals.
	outstanding []sim.Time
	lastArrival sim.Time

	// reported is each device's last self-reported queue-drain estimate
	// (RouteHeadroom only); sinceReport is the estimated device-time routed
	// there after that report, so headroom stays honest between probes.
	// capacity is each device's health (SetHealth), and rr cycles the
	// devices when every one of them is dead.
	reported    []sim.Time
	sinceReport []sim.Time
	capacity    []float64
	rr          int
}

// NewRouter returns a router over gpus devices, all initially healthy.
func NewRouter(policy RoutingPolicy, gpus int) *Router {
	if gpus < 1 {
		panic(fmt.Sprintf("cluster: NewRouter with %d GPUs", gpus))
	}
	r := &Router{
		policy:      policy,
		outstanding: make([]sim.Time, gpus),
		capacity:    make([]float64, gpus),
		reported:    make([]sim.Time, gpus),
		sinceReport: make([]sim.Time, gpus),
	}
	for g := range r.capacity {
		r.capacity[g] = 1
	}
	return r
}

// Add grows the fleet by one device (initially healthy and idle) and returns
// its index. The gateway calls it when the autoscaler admits a new node
// mid-run; existing devices' bookkeeping is untouched, so routing history
// stays valid across the growth.
func (r *Router) Add() int {
	g := len(r.outstanding)
	r.outstanding = append(r.outstanding, 0)
	r.capacity = append(r.capacity, 1)
	r.reported = append(r.reported, 0)
	r.sinceReport = append(r.sinceReport, 0)
	return g
}

// SetHealth records device g's surviving capacity fraction in [0,1] (1 =
// fully healthy, 0 = dead). Only headroom routing reads it: it weighs each
// device's drain time by it, and a fraction of 0 excludes the device from
// picks entirely until health recovers.
func (r *Router) SetHealth(g int, frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	r.capacity[g] = frac
}

// SetHeadroom records device g's live self-reported queue-drain estimate —
// how long the node says it needs to finish everything it has admitted. The
// headroom policy scores on it; the bookkeeping of work routed since the
// report resets here, because the next report already includes that work.
func (r *Router) SetHeadroom(g int, drain sim.Time) {
	if drain < 0 {
		drain = 0
	}
	r.reported[g] = drain
	r.sinceReport[g] = 0
}

// Pick chooses the device for a job arriving at arrival with estimated
// serial device-time est. jobID is unused. Arrivals must be presented in
// non-decreasing time order.
func (r *Router) Pick(arrival, est sim.Time, jobID int) int {
	if r.policy == RouteHeadroom {
		best := -1
		var bestLoad float64
		for g := range r.reported {
			if r.capacity[g] <= 0 {
				continue
			}
			// Drain time after placement, from the node's own estimate plus
			// what we routed there since it reported. Ties break toward the
			// lowest index, deterministically.
			load := float64(r.reported[g]+r.sinceReport[g]+est) / r.capacity[g]
			if best < 0 || load < bestLoad {
				best, bestLoad = g, load
			}
		}
		if best < 0 {
			// Every device is dead; round-robin rather than blackhole one.
			best = r.rr % len(r.reported)
			r.rr++
		}
		r.sinceReport[best] += est
		return best
	}

	// Least-loaded: drain every device by the time since the last arrival,
	// then place on the least outstanding work, ties toward the lowest index.
	elapsed := max(arrival-r.lastArrival, 0)
	r.lastArrival = arrival
	best := 0
	for g := range r.outstanding {
		r.outstanding[g] = max(r.outstanding[g]-elapsed, 0)
		if r.outstanding[g] < r.outstanding[best] {
			best = g
		}
	}
	r.outstanding[best] += est
	return best
}
