package verify

import (
	"fmt"
	"sort"

	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// FleetJob is the gateway-tier ledger row for one job: what the front tier
// promised the client (acceptance) and what actually became of the job across
// however many nodes it was dispatched to. The gateway journal produces one
// row per submission; CheckFleet turns the rows into the fleet-level
// no-lost-jobs invariant — the single-node checker's guarantee extended
// across crashes, freezes and re-dispatch.
type FleetJob struct {
	// ID is the gateway-wide job identifier.
	ID int64

	// Accepted reports whether the gateway took responsibility for the job
	// (it returned 2xx to the client).
	Accepted bool

	// Terminal is the job's final state: "done", "fallback" or "cancelled"
	// for accepted jobs, "rejected" for refused ones, "" for a job that
	// never reached a terminal state — the exact loss the invariant forbids.
	Terminal string

	// Dispatches lists the nodes the job was sent to, in order. Length > 1
	// means failover re-dispatched it after a node died.
	Dispatches []string

	// Duplicates counts terminal reports past the first — a node that was
	// declared dead but later delivered its completion anyway. Duplicates
	// are legal (the journal dedups them) but each must come from a real
	// dispatch.
	Duplicates int

	// Spans is the job's gateway-side trace (routing, re-dispatch and
	// fallback events). Nil skips the trace-consistency rule, so untraced
	// journals check exactly as before.
	Spans []obs.WireSpan
}

// Fleet terminal states for accepted jobs.
const (
	FleetDone      = "done"
	FleetFallback  = "fallback"
	FleetCancelled = "cancelled"
	FleetRejected  = "rejected"
)

// CheckFleet enforces the fleet-level no-lost-jobs invariant over a gateway
// journal snapshot taken after the run quiesced:
//
//   - every accepted job reached exactly one terminal state ("done",
//     "fallback" or "cancelled") — acceptance is a promise that survives
//     node death;
//   - every accepted job was dispatched at least once (acceptance without
//     dispatch is a silently dropped job);
//   - a refused job carries "rejected" (or nothing) and was never
//     re-dispatched — failover must not resurrect work the client was told
//     to retry;
//   - duplicate terminal reports never exceed the extra dispatches that
//     could have produced them;
//   - IDs are unique — a journal that double-books an ID can hide a loss.
//
// at stamps the violations (use the run's final instant). Violations come
// back sorted by job ID, rule order within a job.
func CheckFleet(at sim.Time, jobs []FleetJob) []Violation {
	var vs []Violation
	bad := func(j FleetJob, rule, format string, args ...any) {
		vs = append(vs, Violation{At: at, Rule: rule, Job: int(j.ID),
			Detail: fmt.Sprintf(format, args...)})
	}
	seen := make(map[int64]int, len(jobs))
	sorted := append([]FleetJob(nil), jobs...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i].ID < sorted[k].ID })
	for _, j := range sorted {
		seen[j.ID]++
		if seen[j.ID] == 2 {
			bad(j, "fleet-unique-id", "job ID appears %d times in the journal", seen[j.ID])
		}
		if j.Accepted {
			switch j.Terminal {
			case FleetDone, FleetFallback, FleetCancelled:
			case "":
				bad(j, "fleet-no-lost-jobs",
					"accepted job never reached a terminal state (dispatched to %v)", j.Dispatches)
			default:
				bad(j, "fleet-no-lost-jobs",
					"accepted job ended in %q, not a terminal state", j.Terminal)
			}
			if len(j.Dispatches) == 0 {
				bad(j, "fleet-no-lost-jobs", "accepted job was never dispatched")
			}
		} else {
			if j.Terminal != "" && j.Terminal != FleetRejected {
				bad(j, "fleet-reject-final",
					"refused job ended in %q — failover resurrected rejected work", j.Terminal)
			}
			if len(j.Dispatches) > 1 {
				bad(j, "fleet-reject-final",
					"refused job was re-dispatched %d times", len(j.Dispatches))
			}
		}
		if extra := len(j.Dispatches) - 1; j.Duplicates > extra && extra >= 0 {
			bad(j, "fleet-terminal-once",
				"%d duplicate terminals from %d dispatches", j.Duplicates, len(j.Dispatches))
		} else if j.Duplicates > 0 && len(j.Dispatches) == 0 {
			bad(j, "fleet-terminal-once",
				"%d duplicate terminals without any dispatch", j.Duplicates)
		}
		checkTrace(j, bad)
	}
	return vs
}

// checkTrace enforces the fleet-trace-consistency rule: the gateway's span
// log and its dispatch ledger must tell the same story. Every dispatch to a
// node produced exactly one route or redispatch span, the CPU fallback
// produced exactly one fallback span, and no (name, start) pair repeats — a
// duplicate span would mean a job's history was double-recorded (the orphan
// the chaos propagation test hunts). Skipped for untraced rows (nil Spans).
func checkTrace(j FleetJob, bad func(j FleetJob, rule, format string, args ...any)) {
	if j.Spans == nil {
		return
	}
	const rule = "fleet-trace-consistency"
	routes, fallbacks := 0, 0
	type key struct {
		name, detail string
		us           float64
	}
	seen := make(map[key]bool, len(j.Spans))
	for _, s := range j.Spans {
		switch s.Name {
		case obs.EventRoute, obs.EventRedispatch:
			routes++
		case obs.EventFallback:
			fallbacks++
		}
		k := key{s.Name, s.Detail, s.StartUs}
		if seen[k] {
			bad(j, rule, "duplicate span %q (%s) at %gus", s.Name, s.Detail, s.StartUs)
		}
		seen[k] = true
	}
	nodeDispatches, cpuDispatches := 0, 0
	for _, d := range j.Dispatches {
		if d == "cpu" {
			cpuDispatches++
		} else {
			nodeDispatches++
		}
	}
	if routes != nodeDispatches {
		bad(j, rule, "%d route/redispatch spans for %d node dispatches %v",
			routes, nodeDispatches, j.Dispatches)
	}
	if fallbacks != cpuDispatches {
		bad(j, rule, "%d fallback spans for %d cpu dispatches", fallbacks, cpuDispatches)
	}
}

// CheckFleetScaled extends CheckFleet with the scale-down invariant: a node
// the gateway has retired (graceful drain completed, it left the fleet) must
// not still own live work. An accepted, non-terminal job whose most recent
// dispatch is a retired node is a job the scale-down lost — retirement is
// only legal once every job journaled on the node reached a terminal state
// or was re-dispatched elsewhere. retired lists the names of nodes that have
// completed their drain; the base CheckFleet rules run unchanged.
func CheckFleetScaled(at sim.Time, jobs []FleetJob, retired []string) []Violation {
	vs := CheckFleet(at, jobs)
	if len(retired) == 0 {
		return vs
	}
	gone := make(map[string]bool, len(retired))
	for _, n := range retired {
		gone[n] = true
	}
	for _, j := range jobs {
		if !j.Accepted || j.Terminal != "" || len(j.Dispatches) == 0 {
			continue
		}
		if last := j.Dispatches[len(j.Dispatches)-1]; gone[last] {
			vs = append(vs, Violation{At: at, Rule: "fleet-drain-lossless", Job: int(j.ID),
				Detail: fmt.Sprintf("live job still owned by retired node %q (dispatched to %v)",
					last, j.Dispatches)})
		}
	}
	sort.SliceStable(vs, func(i, k int) bool { return vs[i].Job < vs[k].Job })
	return vs
}
