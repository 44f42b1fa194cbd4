// Package cluster holds the fleet's front-end router: the gateway
// (internal/gateway) places each arriving job on the node whose reported
// queue-drain estimate, plus the work routed there since, is lowest,
// weighted by the node's probed health. Every node then runs the paper's
// machinery (command processor, scheduler, Algorithm 1 admission) on its
// own — the datacenter setting the paper's introduction motivates, extended
// from one device to a fleet.
package cluster

import (
	"fmt"

	"laxgpu/internal/sim"
)

// RoutingPolicy names a routing model. RouteHeadroom is the only one; the
// type, NewRouter's policy parameter and Pick's arrival and jobID stay
// because the separately-versioned benchmark module passes them (ROADMAP
// item 1(e) releases them).
type RoutingPolicy int

// RouteHeadroom routes on live laxity headroom the nodes themselves report
// (Router.SetHeadroom): each pick scores a node by its last reported
// queue-drain estimate plus the work routed there since that report,
// weighted by health.
const RouteHeadroom RoutingPolicy = iota

// Router makes the gateway's placement decisions one arrival at a time: it
// scores the queue-drain estimates the nodes report, plus what it sent
// since, weighted by the coarse per-device health the gateway's probes set
// (the fraction of compute capacity still alive after CU retirements).
//
// Router is not safe for concurrent use; callers serialize Pick/SetHealth.
type Router struct {
	// reported is each device's last self-reported queue-drain estimate;
	// sinceReport is the estimated device-time routed there after that
	// report, so headroom stays honest between probes. capacity is each
	// device's health (SetHealth), and rr cycles the devices when every one
	// of them is dead.
	reported    []sim.Time
	sinceReport []sim.Time
	capacity    []float64
	rr          int
}

// NewRouter returns a router over gpus devices, all initially healthy.
func NewRouter(_ RoutingPolicy, gpus int) *Router {
	if gpus < 1 {
		panic(fmt.Sprintf("cluster: NewRouter with %d GPUs", gpus))
	}
	r := &Router{
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
	g := len(r.reported)
	r.capacity = append(r.capacity, 1)
	r.reported = append(r.reported, 0)
	r.sinceReport = append(r.sinceReport, 0)
	return g
}

// SetHealth records device g's surviving capacity fraction in [0,1] (1 =
// fully healthy, 0 = dead). Pick weighs each device's drain time by it, and
// a fraction of 0 excludes the device from picks entirely until health
// recovers.
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
// how long the node says it needs to finish everything it has admitted. Pick
// scores on it; the bookkeeping of work routed since the
// report resets here, because the next report already includes that work.
func (r *Router) SetHeadroom(g int, drain sim.Time) {
	if drain < 0 {
		drain = 0
	}
	r.reported[g] = drain
	r.sinceReport[g] = 0
}

// Pick chooses the device for a job with estimated serial device-time est.
// arrival and jobID are unused.
func (r *Router) Pick(arrival, est sim.Time, jobID int) int {
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
