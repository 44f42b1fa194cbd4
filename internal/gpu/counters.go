package gpu

import "laxgpu/internal/sim"

// KernelCounter accumulates per-kernel-type dispatch/completion counts and
// the kernel's busy time (wall-clock with at least one WG of this type in
// flight). The command processor samples these to maintain the Kernel
// Profiling Table's WG completion rates (§4.2). Rates are computed against
// busy time, not wall time: a window in which the kernel never ran says
// nothing about how fast it completes when scheduled, only contention while
// running should move the rate.
type KernelCounter struct {
	Name           string
	WGsDispatched  uint64
	WGsCompleted   uint64
	WGsKilled      uint64
	LastCompletion sim.Time

	inFlight  int
	busyNs    sim.Time
	busySince sim.Time

	// latencySumNs accumulates the actual dispatch-to-completion latency of
	// every finished WG; windowed ΔlatencySum/Δcompletions is the exact
	// mean latency of the WGs that completed in the window.
	latencySumNs sim.Time

	// wgNs integrates (in-flight WGs × time): the denominator of the mean
	// WG latency estimate Δcompletions/ΔwgNs.
	wgNs      sim.Time
	lastEvent sim.Time

	// id is the counter's dense index in Counters.byID, cached on kernel
	// instances so the per-WG hot path is a slice access.
	id int
}

// BusyTime returns the cumulative time the kernel type had WGs in flight,
// up to now.
func (k *KernelCounter) BusyTime(now sim.Time) sim.Time {
	b := k.busyNs
	if k.inFlight > 0 {
		b += now - k.busySince
	}
	return b
}

// LatencySum returns the summed dispatch-to-completion latencies of this
// kernel type's finished WGs.
func (k *KernelCounter) LatencySum() sim.Time { return k.latencySumNs }

func (k *KernelCounter) accumulate(now sim.Time) {
	k.wgNs += sim.Time(k.inFlight) * (now - k.lastEvent)
	k.lastEvent = now
}

// Counters is the device's performance-counter block. A kernel name is
// interned once, on first dispatch, to a dense kernel ID; the device's hot
// path addresses counter blocks by that ID (a slice index instead of a map
// lookup per WG event).
type Counters struct {
	perKernel       map[string]*KernelCounter
	byID            []*KernelCounter
	totalWGs        uint64
	totalDispatched uint64
	totalKilled     uint64
}

func (c *Counters) noteDispatch(k *KernelCounter, now sim.Time) {
	k.accumulate(now)
	k.WGsDispatched++
	if k.inFlight == 0 {
		k.busySince = now
	}
	k.inFlight++
	c.totalDispatched++
}

func (c *Counters) noteComplete(k *KernelCounter, now, latency sim.Time) {
	k.accumulate(now)
	k.WGsCompleted++
	k.LastCompletion = now
	k.latencySumNs += latency
	k.inFlight--
	if k.inFlight == 0 {
		k.busyNs += now - k.busySince
	}
	c.totalWGs++
}

// noteKilled retires an in-flight WG without completing it: the dispatch
// happened, no completion ever will. Busy/WG-time integrals close as if the
// WG vanished now.
func (c *Counters) noteKilled(k *KernelCounter, now sim.Time) {
	k.accumulate(now)
	k.WGsKilled++
	k.inFlight--
	if k.inFlight == 0 {
		k.busyNs += now - k.busySince
	}
	c.totalKilled++
}

// idFor interns a kernel name, creating its counter block on first use, and
// returns its dense ID. IDs are stable for the life of the Counters and
// index the internal byID slice; kernel instances cache them so per-WG
// bookkeeping never touches the name map.
func (c *Counters) idFor(name string) int {
	if k := c.perKernel[name]; k != nil {
		return k.id
	}
	k := &KernelCounter{Name: name, id: len(c.byID)}
	c.perKernel[name] = k
	c.byID = append(c.byID, k)
	return k.id
}

// TotalCompleted returns the cumulative WG completions across all kernels.
func (c *Counters) TotalCompleted() uint64 { return c.totalWGs }

// All returns the counter blocks in dense-ID (first-dispatch) order. The
// slice is live — callers must not mutate it — and grows as new kernel
// types dispatch. Profiling-table refreshes iterate it instead of
// allocating a name list per epoch.
func (c *Counters) All() []*KernelCounter { return c.byID }
