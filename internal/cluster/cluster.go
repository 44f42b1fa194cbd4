// Package cluster scales the single-GPU system of the paper out to a
// multi-accelerator server: a front-end router assigns each arriving job to
// one GPU (Split), then every GPU runs the paper's machinery (command
// processor, scheduler, admission) independently. This is the datacenter
// setting the paper's introduction motivates — the pull-based overload
// handling of its SRE citation — extended from one device to a fleet.
//
// Split routes least-loaded at arrival with front-end knowledge only (static
// job size estimates and the router's own bookkeeping of what it already
// sent where), exactly what a real load balancer has; the per-GPU
// schedulers then see ordinary single-device traffic. The online fleet tier
// (internal/gateway) routes with the same Router on the headroom the nodes
// report, weighted by their probed health.
package cluster

import (
	"fmt"
	"sort"

	"laxgpu/internal/cp"
	"laxgpu/internal/metrics"
	"laxgpu/internal/workload"
)

// RoutingPolicy selects how the front end spreads jobs over GPUs.
type RoutingPolicy int

const (
	// RouteLeastLoaded sends each job to the GPU with the least estimated
	// outstanding work (static isolated-time estimates, decayed by
	// arrival-time progress — what a front end can actually know). Split
	// routes with it.
	RouteLeastLoaded RoutingPolicy = iota
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
	case RouteLeastLoaded:
		return "least-loaded"
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

	// Scheduler names the per-GPU queue scheduler.
	Scheduler string
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

// Split validates the fleet description and routes the trace across it
// least-loaded, returning one job set per GPU with dense per-GPU IDs and the
// original arrival times; each share is then an ordinary single-device trace
// (harness.RunFleet replays them).
func Split(cfg Config, set *workload.JobSet) ([]*workload.JobSet, error) {
	if cfg.GPUs < 1 {
		return nil, fmt.Errorf("cluster: GPUs = %d, must be >= 1", cfg.GPUs)
	}
	subsets := make([]*workload.JobSet, cfg.GPUs)
	for g := range subsets {
		subsets[g] = &workload.JobSet{
			Benchmark: set.Benchmark,
			Seed:      set.Seed,
		}
	}

	router := NewRouter(RouteLeastLoaded, cfg.GPUs)

	// Jobs are already arrival-sorted in generated sets; keep that order.
	jobs := append([]*workload.Job(nil), set.Jobs...)
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Arrival < jobs[b].Arrival })
	for _, j := range jobs {
		g := router.Pick(j.Arrival, j.SerialTime(cfg.System.GPU), j.ID)
		clone := *j
		clone.ID = subsets[g].Len()
		subsets[g].Jobs = append(subsets[g].Jobs, &clone)
	}
	return subsets, nil
}
