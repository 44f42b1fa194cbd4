// Package cluster scales the single-GPU system of the paper out to a
// multi-accelerator server: a front-end router assigns each arriving job to
// one GPU (Split), then every GPU runs the paper's machinery (command
// processor, scheduler, admission) independently. This is the datacenter
// setting the paper's introduction motivates — the pull-based overload
// handling of its SRE citation — extended from one device to a fleet.
//
// Routing happens at arrival with front-end knowledge only (static job
// size estimates and the router's own bookkeeping of what it already sent
// where), exactly what a real load balancer has; the per-GPU schedulers
// then see ordinary single-device traffic.
package cluster

import (
	"fmt"
	"sort"

	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/gpu"
	"laxgpu/internal/metrics"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// RoutingPolicy selects how the front end spreads jobs over GPUs.
type RoutingPolicy int

const (
	// RouteRoundRobin cycles GPUs per arrival.
	RouteRoundRobin RoutingPolicy = iota
	// RouteLeastLoaded sends each job to the GPU with the least estimated
	// outstanding work (static isolated-time estimates, decayed by
	// arrival-time progress — what a front end can actually know).
	RouteLeastLoaded
	// RouteJobHash pins jobs to GPUs by job ID (session affinity).
	RouteJobHash
	// RouteHeadroom routes on live laxity headroom the nodes themselves
	// report (Router.SetHeadroom): each pick scores a node by its last
	// reported queue-drain estimate plus the work routed there since that
	// report, weighted by health — the gateway tier's policy, where nodes
	// answer probes with their own Algorithm 1 drain estimates instead of
	// the front end guessing from static job sizes.
	RouteHeadroom
)

func (p RoutingPolicy) String() string {
	switch p {
	case RouteRoundRobin:
		return "round-robin"
	case RouteLeastLoaded:
		return "least-loaded"
	case RouteJobHash:
		return "job-hash"
	case RouteHeadroom:
		return "headroom"
	default:
		return fmt.Sprintf("RoutingPolicy(%d)", int(p))
	}
}

// Config describes the cluster.
type Config struct {
	// GPUs is the accelerator count (≥ 1).
	GPUs int

	// System configures each GPU (the paper's Table 2 by default).
	System cp.SystemConfig

	// Routing selects the front-end policy.
	Routing RoutingPolicy

	// Scheduler names the per-GPU queue scheduler.
	Scheduler string

	// Faults optionally degrades individual GPUs: entry g is a
	// faults.ParseSpec string applied to GPU g (empty entries and GPUs
	// beyond the slice stay healthy). Scheduled CU retirements feed the
	// router's health signal, so least-loaded routing steers work away from
	// degraded devices at the arrival times the capacity is actually lost.
	Faults []string

	// Seed derives each GPU's fault plan (GPU g draws from Seed+g), keeping
	// fleet runs reproducible.
	Seed int64
}

// Result aggregates the fleet outcome.
type Result struct {
	// PerGPU holds each device's summary.
	PerGPU []metrics.Summary

	// MetDeadline, Rejected, Cancelled and TotalJobs aggregate the fleet.
	MetDeadline int
	Rejected    int
	Cancelled   int
	TotalJobs   int

	// Imbalance is max/min jobs routed per GPU (1.0 = perfectly even).
	Imbalance float64
}

// DeadlineFrac is the fleet-wide deadline-met fraction.
func (r Result) DeadlineFrac() float64 {
	if r.TotalJobs == 0 {
		return 0
	}
	return float64(r.MetDeadline) / float64(r.TotalJobs)
}

// Split validates the fleet description and routes the trace across it,
// returning one job set per GPU with dense per-GPU IDs and the original
// arrival times; each share is then an ordinary single-device trace
// (harness.RunFleet replays them). Scheduled CU retirements from the fault
// specs are replayed into the router's health signal as arrivals pass them.
func Split(cfg Config, set *workload.JobSet) ([]*workload.JobSet, error) {
	if cfg.GPUs < 1 {
		return nil, fmt.Errorf("cluster: GPUs = %d, must be >= 1", cfg.GPUs)
	}
	specs, err := faults.ParseSpecs(cfg.Faults, cfg.GPUs)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	subsets := make([]*workload.JobSet, cfg.GPUs)
	for g := range subsets {
		subsets[g] = &workload.JobSet{
			Benchmark: set.Benchmark,
			Seed:      set.Seed,
		}
	}

	router := NewRouter(cfg.Routing, cfg.GPUs)
	health := NewHealthSchedule(cfg.System.GPU.NumCUs, specs)

	// Jobs are already arrival-sorted in generated sets; keep that order.
	jobs := append([]*workload.Job(nil), set.Jobs...)
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Arrival < jobs[b].Arrival })
	for _, j := range jobs {
		health.Apply(router, j.Arrival)
		g := router.Pick(j.Arrival, j.SerialTime(cfg.System.GPU), j.ID)
		clone := *j
		clone.ID = subsets[g].Len()
		subsets[g].Jobs = append(subsets[g].Jobs, &clone)
	}
	return subsets, nil
}

// healthEvent is one scheduled capacity loss the front end knows about.
type healthEvent struct {
	at   sim.Time
	gpu  int
	frac float64 // surviving capacity fraction after the loss
}

// HealthSchedule replays fault-plan CU retirements into Router.SetHealth as
// simulated time passes — the front-end analogue of a health checker that
// learns about degraded devices with no latency. Retirement times are known
// upfront (the plans are deterministic), so the schedule is a sorted list
// consumed by arrival time. Shared by the offline trace splitter and the
// online serving frontend.
type HealthSchedule struct {
	events []healthEvent
	next   int
}

// NewHealthSchedule builds the schedule for a fleet of numCUs-CU devices,
// one fault spec per device.
func NewHealthSchedule(numCUs int, specs []faults.Spec) *HealthSchedule {
	h := &HealthSchedule{}
	for g, sp := range specs {
		retired := 0
		for _, r := range sp.Retirements {
			retired += r.CUs
			frac := 0.0
			if numCUs > 0 && retired < numCUs {
				frac = float64(numCUs-retired) / float64(numCUs)
			}
			h.events = append(h.events, healthEvent{at: r.At, gpu: g, frac: frac})
		}
	}
	sort.SliceStable(h.events, func(a, b int) bool { return h.events[a].at < h.events[b].at })
	return h
}

// Apply pushes every event at or before now into the router.
func (h *HealthSchedule) Apply(r *Router, now sim.Time) {
	for h.next < len(h.events) && h.events[h.next].at <= now {
		e := h.events[h.next]
		r.SetHealth(e.gpu, e.frac)
		h.next++
	}
}

// Capacity estimates the per-GPU device-time capacity consumed by the set,
// a quick feasibility check for sizing fleets.
func Capacity(cfg gpu.Config, set *workload.JobSet) sim.Time {
	var total sim.Time
	for _, j := range set.Jobs {
		total += j.SerialTime(cfg)
	}
	return total
}
