package sched

import (
	"laxgpu/internal/core"
	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
)

// LAXPREMA is the hybrid the paper sketches as future work (§6.1.2: "a
// hybrid solution which combines elements of LAX and PREMA could be
// interesting future work"). It keeps LAX's full machinery — stream
// inspection, profiled completion rates, Little's-Law admission and laxity
// priorities — and adds PREMA's one capability LAX forgoes: preemption.
// Jobs that Algorithm 2 has already written off (PriorityINF — past their
// deadline) are preempted and *dropped* while feasible work is present,
// rather than merely deprioritized: LAX would still burn device capacity
// finishing them (the wasted work of Figure 9), whereas there is no
// deadline left to save. Preemption pays the PREMA context-save cost for
// work in flight.
type LAXPREMA struct {
	*LAX
}

// NewLAXPREMA returns the hybrid scheduler.
func NewLAXPREMA() *LAXPREMA {
	return &LAXPREMA{LAX: NewLAX()}
}

// Name implements cp.Policy. The embedded LAX keeps its own name, which
// the admission, epoch and table-refresh events it emits carry.
func (p *LAXPREMA) Name() string { return "LAX-PREMA" }

// Reprioritize runs Algorithm 2, then applies the PREMA element: while any
// live (non-expired) job is present, expired jobs are preempted and
// dropped, reclaiming every WG slot and all the memory bandwidth their
// remaining kernels would have consumed. With no live work the expired jobs
// are left to drain in the background (work conserving: the device would
// otherwise idle).
func (p *LAXPREMA) Reprioritize() {
	p.LAX.Reprioritize()

	live := false
	for _, j := range p.sys.Active() {
		if j.Priority != core.PriorityINF {
			live = true
			break
		}
	}
	if !live {
		return
	}

	var preemptBytes int
	// Collect first: Cancel mutates the active list.
	var doomed []*cp.JobRun
	for _, j := range p.sys.Active() {
		if j.Priority == core.PriorityINF {
			doomed = append(doomed, j)
		}
	}
	for _, j := range doomed {
		if k := j.Current(); k != nil && k.OutstandingWGs() > 0 {
			preemptBytes += k.Desc.ContextBytes()
		}
		p.sys.Cancel(j)
	}
	if preemptBytes > 0 {
		stall := sim.Time(preemptBytes / premaSaveRestoreBytesPerNs)
		if stall > 0 {
			p.sys.Device().Stall(stall)
		}
	}
}

// compile-time interface check.
var _ cp.Policy = (*LAXPREMA)(nil)
