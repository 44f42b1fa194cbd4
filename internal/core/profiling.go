// Package core implements the paper's primary contribution: the LAX
// laxity-aware scheduling machinery. It contains the Kernel Profiling Table
// (dynamic per-kernel workgroup completion rates, §4.2), the job
// remaining-time estimator driven by stream-inspected WGLists, the
// Little's-Law queuing-delay admission test (Algorithm 1, §4.3), and the
// laxity priority function (Algorithm 2, §4.4).
//
// The package is deliberately free of simulator plumbing: everything
// operates on plain values and the device's performance counters, so each
// algorithm is testable in isolation and reusable by the LAX, LAX-SW,
// LAX-CPU and SRF policies.
package core

import (
	"maps"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// WGEntry is one element of a job's WGList: a kernel type and the number of
// its workgroups that have not completed. Stream inspection produces the
// initial list; entries are decremented as WGs finish (§4.2).
type WGEntry struct {
	Kernel string
	WGs    int
}

// DefaultUpdateInterval is how often the Kernel Profiling Table is
// refreshed and priorities are recomputed — "empirically set at 100 µs"
// (§4.2, §4.4).
const DefaultUpdateInterval = 100 * sim.Microsecond

// ptKernel is one kernel type's row in the profiling table.
type ptKernel struct {
	name       string
	rate       float64 // WGs per nanosecond of device delivery
	hasRate    bool
	lastCount  uint64
	lastBusy   sim.Time
	lastLatSum sim.Time
	capacity   int // max concurrently resident WGs; 0 = unregistered
}

// ProfilingTable is the Kernel Profiling Table: per-kernel-type workgroup
// completion rates, periodically refreshed from device counters so
// estimates "adapt quickly and effectively to changing contention levels"
// (§4.3).
//
// Rates are device-aggregate (WGs per nanosecond across all CUs), so
// dividing a WG count by the rate directly yields wall-clock time under the
// current contention and parallelism — the quantity Algorithms 1 and 2
// consume.
//
// Kernel names are interned to dense IDs (IDFor) and the table keeps a
// version counter that bumps whenever any rate or capacity changes, so
// schedulers can cache derived estimates and revalidate them with one
// integer compare per epoch instead of recomputing every job's chain.
type ProfilingTable struct {
	// alpha is the EWMA weight given to the newest window's rate. 1 means
	// "use only the latest window".
	alpha float64

	ids        map[string]int // kernel name → dense ID into ks
	ks         []ptKernel
	lastSample sim.Time

	// version counts rate/capacity changes; any cached KernelTime/DrainTime
	// derivation stamped with an older version must be recomputed.
	version uint64

	// ctrIDs maps device counter IDs to table IDs so Update never touches
	// the name map in steady state.
	ctrIDs []int
}

// NewProfilingTable returns an empty table. alpha in (0,1] controls
// smoothing across 100 µs windows; the paper's description implies fast
// adaptation, so values near 1 are appropriate.
func NewProfilingTable(alpha float64) *ProfilingTable {
	if alpha <= 0 || alpha > 1 {
		panic("core: ProfilingTable alpha must be in (0,1]")
	}
	return &ProfilingTable{
		alpha: alpha,
		ids:   make(map[string]int),
	}
}

// IDFor interns a kernel name and returns its dense table ID. IDs are
// stable for the life of the table (snapshots preserve them) and index the
// ID-suffixed fast-path methods.
func (t *ProfilingTable) IDFor(name string) int {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := len(t.ks)
	t.ids[name] = id
	t.ks = append(t.ks, ptKernel{name: name})
	return id
}

// Version returns the table's change counter: it advances whenever any
// kernel's rate or capacity changes, so an estimate cached at version v is
// still exact while Version() == v.
func (t *ProfilingTable) Version() uint64 { return t.version }

// SetCapacity records how many WGs of the kernel type the device can host
// concurrently (from the kernel packet's thread/register/LDS fields). With
// a known capacity, the profiled rate is the device's delivery capacity for
// the kernel — capacity / mean observed WG latency — rather than the rate
// at whatever occupancy happened to occur. The distinction matters at low
// load: an arriving job should not be rejected because the lone job in
// flight is using a tenth of the machine.
func (t *ProfilingTable) SetCapacity(name string, maxConcurrentWGs int) {
	if maxConcurrentWGs > 0 {
		k := &t.ks[t.IDFor(name)]
		if k.capacity != maxConcurrentWGs {
			k.capacity = maxConcurrentWGs
			t.version++
		}
	}
}

// Update samples the device counters at time now and refreshes each
// kernel's completion rate from the window's observations.
//
// With a registered capacity, the rate is capacity / mean-WG-latency, where
// the mean latency averages the actual dispatch-to-completion latencies of
// the WGs that finished in the window — the device's delivery capacity for
// the kernel under the contention actually experienced. Without one, the
// rate falls back to completions per busy nanosecond (time with ≥1 WG in
// flight).
//
// Either way the denominator is never wall time: an idle window says
// nothing about how fast a kernel completes when scheduled, and dividing by
// wall time would collapse the rate whenever admission control empties the
// device (reject → lower rate → larger estimates → more rejects — a death
// spiral). Windows with no completions leave the last rate in place.
func (t *ProfilingTable) Update(c *gpu.Counters, now sim.Time) {
	window := now - t.lastSample
	if window <= 0 {
		return
	}
	changed := false
	for ci, kc := range c.All() {
		for len(t.ctrIDs) <= ci {
			t.ctrIDs = append(t.ctrIDs, -1)
		}
		id := t.ctrIDs[ci]
		if id < 0 {
			id = t.IDFor(kc.Name)
			t.ctrIDs[ci] = id
		}
		k := &t.ks[id]
		cum := kc.WGsCompleted
		busy := kc.BusyTime(now)
		latSum := kc.LatencySum()
		delta := cum - k.lastCount
		busyDelta := busy - k.lastBusy
		latDelta := latSum - k.lastLatSum
		k.lastCount = cum
		k.lastBusy = busy
		k.lastLatSum = latSum
		if delta == 0 {
			continue
		}
		var rate float64
		if k.capacity > 0 && latDelta > 0 {
			meanLatency := float64(latDelta) / float64(delta)
			rate = float64(k.capacity) / meanLatency
		} else if busyDelta > 0 {
			rate = float64(delta) / float64(busyDelta)
		} else {
			continue
		}
		if k.hasRate {
			k.rate = t.alpha*rate + (1-t.alpha)*k.rate
		} else {
			k.rate = rate
			k.hasRate = true
		}
		changed = true
	}
	if changed {
		t.version++
	}
	t.lastSample = now
}

// ObserveRate force-sets a kernel's rate (WGs/ns). Used by tests and by
// policies seeding tables from offline profiles (Prophet-style).
func (t *ProfilingTable) ObserveRate(name string, wgsPerNs float64) {
	if wgsPerNs > 0 {
		k := &t.ks[t.IDFor(name)]
		if !k.hasRate || k.rate != wgsPerNs {
			k.rate = wgsPerNs
			k.hasRate = true
			t.version++
		}
	}
}

// Len returns the number of kernel types with a profiled completion rate —
// the table's population, reported by the telemetry layer at each refresh.
func (t *ProfilingTable) Len() int {
	n := 0
	for i := range t.ks {
		if t.ks[i].hasRate {
			n++
		}
	}
	return n
}

// Rate returns the profiled completion rate for the kernel type and whether
// one exists yet.
func (t *ProfilingTable) Rate(name string) (float64, bool) {
	if id, ok := t.ids[name]; ok && t.ks[id].hasRate {
		return t.ks[id].rate, true
	}
	return 0, false
}

// SnapshotInto makes dst a deep copy of the table's current rates, reusing
// dst's storage. CPU-side LAX variants schedule from snapshots that lag the
// live table by a host-device round trip (the paper's fidelity argument for
// extending the CP), taking one every window into the older of two tables.
// IDs are preserved, so estimates resolved against the live table index the
// snapshot identically; the copy starts a fresh version history. dst may be
// a zero ProfilingTable, and must not be t.
func (t *ProfilingTable) SnapshotInto(dst *ProfilingTable) {
	ids := dst.ids
	if ids == nil {
		ids = make(map[string]int, len(t.ids))
	}
	clear(ids)
	maps.Copy(ids, t.ids)
	*dst = ProfilingTable{
		alpha:      t.alpha,
		ids:        ids,
		ks:         append(dst.ks[:0], t.ks...),
		lastSample: t.lastSample,
		ctrIDs:     append(dst.ctrIDs[:0], t.ctrIDs...),
	}
}

// KernelTime estimates how long one launch of wgs workgroups of the kernel
// type will take under current conditions: the measured per-WG latency
// times the number of waves the launch itself needs. The launch's effective
// concurrency is bounded by its own WG count — a single-workgroup kernel
// takes one WG latency no matter how many WGs of its type the device could
// co-host. With no profiled rate yet, LAX "optimistically assumes it takes
// no time, to avoid rejecting work it could potentially complete" (§4.3) —
// it returns 0.
func (t *ProfilingTable) KernelTime(name string, wgs int) sim.Time {
	id, ok := t.ids[name]
	if !ok {
		return 0
	}
	return t.KernelTimeID(id, wgs)
}

// KernelTimeID is KernelTime addressed by dense table ID.
func (t *ProfilingTable) KernelTimeID(id, wgs int) sim.Time {
	if wgs <= 0 {
		return 0
	}
	k := &t.ks[id]
	if !k.hasRate || k.rate <= 0 {
		return 0
	}
	if k.capacity > 0 && wgs < k.capacity {
		// rate is capacity/meanLatency; re-derive the launch-local rate
		// wgs/meanLatency.
		return sim.Time(float64(k.capacity) / k.rate)
	}
	return sim.Time(float64(wgs) / k.rate)
}

// DrainTime estimates the kernel type's contribution to draining the whole
// queue: wgs divided by the device's delivery capacity for the kernel. This
// is the Little's-Law view — many jobs' identical kernels drain in
// parallel — and feeds Algorithm 1's queuing-delay sum.
func (t *ProfilingTable) DrainTime(name string, wgs int) sim.Time {
	id, ok := t.ids[name]
	if !ok {
		return 0
	}
	return t.DrainTimeID(id, wgs)
}

// DrainTimeID is DrainTime addressed by dense table ID.
func (t *ProfilingTable) DrainTimeID(id, wgs int) sim.Time {
	if wgs <= 0 {
		return 0
	}
	k := &t.ks[id]
	if !k.hasRate || k.rate <= 0 {
		return 0
	}
	return sim.Time(float64(wgs) / k.rate)
}

// RemainingTime estimates the time for one job to finish its WGList:
// kernels in a job are sequentially dependent, so per-kernel launch
// estimates sum (§4.2). Used by Algorithm 2's laxity and by SRF.
func (t *ProfilingTable) RemainingTime(list []WGEntry) sim.Time {
	var total sim.Time
	for _, e := range list {
		total += t.KernelTime(e.Kernel, e.WGs)
	}
	return total
}

// RemainingDrain estimates a job's contribution to the system-wide queuing
// delay (Algorithm 1 lines 8-10).
func (t *ProfilingTable) RemainingDrain(list []WGEntry) sim.Time {
	var total sim.Time
	for _, e := range list {
		total += t.DrainTime(e.Kernel, e.WGs)
	}
	return total
}
