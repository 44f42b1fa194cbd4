package cluster

import (
	"fmt"

	"laxgpu/internal/sim"
)

// ParseRoutingPolicy converts the canonical policy names ("round-robin",
// "least-loaded", "job-hash") to a RoutingPolicy.
func ParseRoutingPolicy(s string) (RoutingPolicy, error) {
	switch s {
	case "round-robin", "rr":
		return RouteRoundRobin, nil
	case "least-loaded", "ll":
		return RouteLeastLoaded, nil
	case "job-hash", "hash":
		return RouteJobHash, nil
	case "headroom", "hr":
		return RouteHeadroom, nil
	}
	return 0, fmt.Errorf("cluster: unknown routing policy %q (want round-robin|least-loaded|job-hash|headroom)", s)
}

// Router makes front-end placement decisions one arrival at a time with
// front-end knowledge only: static job-size estimates, its own bookkeeping
// of what it already sent where, and coarse per-device health (the fraction
// of compute capacity still alive after CU retirements). It is the routing
// core shared by the offline trace splitter (route) and the online serving
// frontend, which cannot see the whole trace and must decide per arrival.
//
// Router is not safe for concurrent use; callers serialize Pick/SetHealth.
type Router struct {
	policy RoutingPolicy

	// outstanding estimates the device-time each GPU still owes for jobs
	// already routed to it, decayed between arrivals: a healthy device
	// drains one device-second per second, a degraded one proportionally
	// less.
	outstanding []sim.Time
	capacity    []float64
	lastArrival sim.Time
	rr          int

	// reported is each device's last self-reported queue-drain estimate
	// (RouteHeadroom only); sinceReport is the estimated device-time routed
	// there after that report, so headroom stays honest between probes.
	reported    []sim.Time
	sinceReport []sim.Time
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
// fully healthy, 0 = dead). Least-loaded and headroom routing drain and
// weigh the device by it — a fraction of 0 excludes the device from picks
// entirely until health recovers; round-robin and job-hash ignore health by
// design — they are stateless spreading/affinity policies a front end uses
// precisely when it has no load signal.
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
// serial device-time est. jobID feeds the job-hash policy. Arrivals must be
// presented in non-decreasing time order.
func (r *Router) Pick(arrival, est sim.Time, jobID int) int {
	switch r.policy {
	case RouteHeadroom:
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
	case RouteLeastLoaded:
		elapsed := arrival - r.lastArrival
		if elapsed < 0 {
			elapsed = 0
		}
		for g := range r.outstanding {
			r.outstanding[g] -= sim.Time(float64(elapsed) * r.capacity[g])
			if r.outstanding[g] < 0 {
				r.outstanding[g] = 0
			}
		}
		r.lastArrival = arrival
		best := -1
		var bestLoad float64
		for g := range r.outstanding {
			if r.capacity[g] <= 0 {
				continue
			}
			// Score the drain time *after* placement: a degraded device
			// then loses ties against a healthy one even when both idle.
			load := float64(r.outstanding[g]+est) / r.capacity[g]
			if best < 0 || load < bestLoad {
				best, bestLoad = g, load
			}
		}
		if best < 0 {
			// Every device is dead; round-robin rather than blackhole one.
			best = r.rr % len(r.outstanding)
			r.rr++
		}
		r.outstanding[best] += est
		return best
	case RouteJobHash:
		return jobID % len(r.outstanding)
	default:
		g := r.rr % len(r.outstanding)
		r.rr++
		return g
	}
}
