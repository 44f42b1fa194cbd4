package metrics

import (
	"fmt"

	"laxgpu/internal/cp"
)

// MissKind classifies why a job failed to meet its deadline — the
// diagnostic behind the schedulers' aggregate numbers. A queue-dominated
// miss indicts admission/ordering; a contention-dominated miss indicts
// co-scheduling; rejected and cancelled misses are deliberate policy
// decisions.
type MissKind int

const (
	// MissRejected: admission control refused the job.
	MissRejected MissKind = iota
	// MissCancelled: the job was preempted and dropped mid-flight.
	MissCancelled
	// MissFaulted: recovery gave up on the GPU and completed the job on
	// the CPU fallback path — it finished, but the fault chain (hangs,
	// aborts, watchdog kills) cost it the deadline.
	MissFaulted
	// MissStarved: the job completed (late) without ever being dispatched
	// before its deadline passed, or never ran at all before finishing
	// late — it waited out its entire budget.
	MissStarved
	// MissQueued: the job ran, but spent more of its budget waiting for
	// its first workgroup than executing.
	MissQueued
	// MissContended: the job started promptly but executed too slowly
	// (co-runner contention or sheer size).
	MissContended
)

func (k MissKind) String() string {
	switch k {
	case MissRejected:
		return "rejected"
	case MissCancelled:
		return "cancelled"
	case MissFaulted:
		return "faulted"
	case MissStarved:
		return "starved"
	case MissQueued:
		return "queued"
	case MissContended:
		return "contended"
	default:
		return "unknown"
	}
}

// ParseMissKind inverts String for the six taxonomy names (it never
// accepts "unknown": that is the display fallback for a corrupt value, not
// a member of the taxonomy).
func ParseMissKind(s string) (MissKind, error) {
	for _, k := range MissKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("metrics: unknown miss kind %q", s)
}

// MarshalJSON encodes the kind as its taxonomy name, so exported
// breakdowns read "queued" rather than an opaque ordinal that would shift
// if the enumeration were ever reordered.
func (k MissKind) MarshalJSON() ([]byte, error) {
	s := k.String()
	if s == "unknown" {
		return nil, fmt.Errorf("metrics: cannot marshal invalid MissKind(%d)", int(k))
	}
	return []byte(`"` + s + `"`), nil
}

// UnmarshalJSON decodes a taxonomy name produced by MarshalJSON.
func (k *MissKind) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("metrics: miss kind must be a JSON string, got %s", data)
	}
	parsed, err := ParseMissKind(string(data[1 : len(data)-1]))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// MissKinds enumerates the taxonomy in display order.
func MissKinds() []MissKind {
	return []MissKind{MissRejected, MissCancelled, MissFaulted, MissStarved, MissQueued, MissContended}
}

// ClassifyMiss returns the miss kind for a job that did not meet its
// deadline. It must only be called for such jobs (met-deadline jobs have no
// miss kind).
func ClassifyMiss(j *cp.JobRun) MissKind {
	switch {
	case j.Rejected():
		return MissRejected
	case j.Cancelled():
		return MissCancelled
	case j.FellBack:
		return MissFaulted
	case j.FirstDispatch < 0 || j.FirstDispatch > j.Job.AbsoluteDeadline():
		return MissStarved
	}
	wait := j.FirstDispatch - j.SubmitTime
	exec := j.FinishTime - j.FirstDispatch
	if wait > exec {
		return MissQueued
	}
	return MissContended
}

// MissBreakdown tallies the misses of a finished run by kind.
func MissBreakdown(sys *cp.System) map[MissKind]int {
	out := make(map[MissKind]int)
	for _, j := range sys.Jobs() {
		if j.MetDeadline() {
			continue
		}
		out[ClassifyMiss(j)]++
	}
	return out
}
