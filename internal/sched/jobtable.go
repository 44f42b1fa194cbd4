package sched

import (
	"laxgpu/internal/core"
	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
)

// jobTable is the incremental remaining-time estimator shared by the
// profiling-table-driven policies (LAX's CP variant and SRF). It is the
// dirty-set machinery behind Algorithm 2's 100 µs epoch: instead of walking
// every job's WGList and re-deriving each kernel's launch time per pass,
// the table caches one entry per job — hung off the JobRun itself
// (cp.JobRun.SchedState), so it is reached without a lookup and is dropped
// with the job — and revalidates it with three integer compares:
//
//   - the profiling-table version (did any rate or capacity move?),
//   - the job's current-kernel index (did a kernel finish?),
//   - the job's completed-WG count (the WG-completion delta).
//
// A job whose three stamps match is clean: its cached remaining/drain
// estimates are returned untouched. Any mismatch marks the job dirty and
// recomputes from per-(kernel, WG-count) launch-time slots that are
// themselves memoized per table version, so a chain of thirty GEMMs costs
// thirty slice reads and adds — the float divisions happen once per kernel
// shape per epoch, not once per job per kernel per epoch.
//
// Exactness: estimates are integer sums (sim.Time) of per-kernel launch
// times that depend only on (rate, capacity, WG count). The version stamp
// pins the first two and the cur/WG stamps pin the third, so a cache hit
// returns bit-identical values to a full recompute — pinned by the
// differential suite (TestIncrementalLAXDifferential, 500 random workloads
// against the DisableIncremental reference path).
type jobTable struct {
	pt *core.ProfilingTable

	// slots dedupe full-launch estimates by (kernel ID, WG count); slotIdx
	// interns them. Slot values are stamped with the pt version they were
	// computed at.
	slots   []fullSlot
	slotIdx map[slotKey]int32
}

// jobEntry caches one job's estimates and the stamps that validate them.
type jobEntry struct {
	chain   []int32 // per kernel: index into slots, resolved at admit
	valid   bool
	lastVer uint64
	lastCur int32
	lastWGs int32
	rem     sim.Time // pt.RemainingTime(j.RemainingWGList())
	drain   sim.Time // pt.RemainingDrain(j.RemainingWGList())
}

type slotKey struct {
	ptID int32
	wgs  int32
}

// fullSlot memoizes the launch-time/drain-time of one kernel shape (dense
// profiling-table ID × WG count), recomputed at most once per table
// version.
type fullSlot struct {
	ptID    int32
	wgs     int32
	stamp   uint64 // pt version kt/dt were computed at
	stamped bool
	kt      sim.Time
	dt      sim.Time
}

func newJobTable(pt *core.ProfilingTable) *jobTable {
	return &jobTable{pt: pt, slotIdx: make(map[slotKey]int32)}
}

// register resolves the job's kernel chain to slot indices and hangs the
// entry off the JobRun. Called at admission (stream inspection already walks
// the chain there); idempotent.
func (t *jobTable) register(j *cp.JobRun) *jobEntry {
	if e, ok := j.SchedState.(*jobEntry); ok {
		return e
	}
	e := &jobEntry{chain: make([]int32, len(j.Instances))}
	for i, inst := range j.Instances {
		e.chain[i] = t.slotFor(int32(t.pt.IDFor(inst.Desc.Name)), int32(inst.Desc.NumWGs))
	}
	j.SchedState = e
	return e
}

func (t *jobTable) slotFor(ptID, wgs int32) int32 {
	k := slotKey{ptID, wgs}
	if i, ok := t.slotIdx[k]; ok {
		return i
	}
	i := int32(len(t.slots))
	t.slots = append(t.slots, fullSlot{ptID: ptID, wgs: wgs})
	t.slotIdx[k] = i
	return i
}

// slotTimes returns the memoized (KernelTime, DrainTime) of a full launch
// of the slot's kernel shape at the current table version.
func (t *jobTable) slotTimes(si int32, ver uint64) (sim.Time, sim.Time) {
	s := &t.slots[si]
	if !s.stamped || s.stamp != ver {
		s.kt = t.pt.KernelTimeID(int(s.ptID), int(s.wgs))
		s.dt = t.pt.DrainTimeID(int(s.ptID), int(s.wgs))
		s.stamp = ver
		s.stamped = true
	}
	return s.kt, s.dt
}

// estimates returns the job's remaining-time and drain estimates, exactly
// equal to pt.RemainingTime/RemainingDrain over j.RemainingWGList(). Clean
// jobs return cached values; dirty jobs recompute incrementally.
func (t *jobTable) estimates(j *cp.JobRun) (rem, drain sim.Time) {
	e := t.register(j)
	ver := t.pt.Version()
	cur := int32(j.CurrentIndex())
	wgs := int32(j.WGsCompleted())
	if e.valid && e.lastVer == ver && e.lastCur == cur && e.lastWGs == wgs {
		return e.rem, e.drain
	}
	rem, drain = 0, 0
	chain := e.chain
	if int(cur) < len(chain) {
		// Head kernel: partially complete, so its WG count is live state,
		// not a shared slot.
		n := j.Instances[cur].UncompletedWGs()
		ptID := int(t.slots[chain[cur]].ptID)
		rem += t.pt.KernelTimeID(ptID, n)
		drain += t.pt.DrainTimeID(ptID, n)
		// Tail kernels have not started (chains are sequential), so each is
		// a full launch of a shared shape.
		for _, si := range chain[cur+1:] {
			kt, dt := t.slotTimes(si, ver)
			rem += kt
			drain += dt
		}
	}
	e.lastVer = ver
	e.lastCur = cur
	e.lastWGs = wgs
	e.rem = rem
	e.drain = drain
	e.valid = true
	return rem, drain
}
