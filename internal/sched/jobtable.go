package sched

import (
	"slices"
	"sync"

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
// themselves memoized per table version — the float divisions happen once
// per kernel shape per epoch, not once per job per kernel per epoch.
//
// The recompute sums the tail by shape, not kernel by kernel. Chains are
// long (LSTM averages 122 kernels) but have few distinct shapes (5-6 for
// the RNN benchmarks, 1 for the single-kernel ones), so each entry counts
// how many tail kernels have each of its shapes. A kernel completing
// moves one kernel out of the tail and decrements one count, and the tail
// estimate is Σ count × slot time: a handful of multiply-adds per dirty job
// where the kernel-by-kernel walk did one slice read and add per kernel.
//
// Exactness: estimates are integer sums (sim.Time) of per-kernel launch
// times that depend only on (rate, capacity, WG count). The version stamp
// pins the first two and the cur/WG stamps pin the third, and integer
// addition does not care about order, so a cache hit and a shape-count sum
// return bit-identical values to a full walk — pinned by the differential
// suite (TestIncrementalLAXDifferential, 500 random workloads against the
// DisableIncremental reference path; TestSRFPrioritiesMatchFromScratchWalk).
type jobTable struct {
	pt *core.ProfilingTable

	// slots dedupe full-launch estimates by (kernel ID, WG count); slotIdx
	// interns them. Slot values are stamped with the pt version they were
	// computed at.
	slots   []fullSlot
	slotIdx map[slotKey]int32

	// register's scratch: the job's distinct slots, each kernel's local
	// shape index, and localOf[slot] = 1 + local index while registering.
	shapes, local, localOf []int32

	// entries and words are the unused rest of the slabs register carves
	// entries and their bufs from, so an admitted job of a batch trace costs
	// no allocation of its own: one entry slab sized to the trace (jobs),
	// and bufs from chunks of up to wordChunk words. A slab stays reachable
	// while any job carved from it is, so an online table (jobs 0: no
	// trace, and jobs retire as the node runs) allocates each job's entry
	// and buf alone.
	jobs    int
	entries []jobEntry
	words   []int32

	// spare is a retired online job's entry handed back through ReuseState
	// (see reuse): the next register rebuilds its entry in it, and in its
	// buf when that is long enough.
	spare *jobEntry

	// store is a batch table's pooled storage, nil for an online one: the
	// slabs come from it and release hands them back (cp.StateReleaser).
	store *tableStore
}

// tableStore is a batch table's pooled storage: its entry slab, and every
// word chunk it carved bufs from, the first next of them in use by the
// table that holds the store and the rest spare.
type tableStore struct {
	entries []jobEntry
	words   [][]int32
	next    int
}

// tableStores holds the storage released tables handed back.
var tableStores sync.Pool

// wordChunk is the size of a batch table's buf chunks: 4 KiB, the bufs of
// about 22 LSTM jobs.
const wordChunk = 1024

// jobEntry caches one job's estimates and the stamps that validate them.
//
// Its shapes, tail counts and chain share one backing array, buf, and both
// the entry and buf are carved from the table's slabs: buf[:d] holds
// the job's d distinct slots, buf[d:2d] how many tail kernels have each,
// and buf[2d:] the chain — each kernel's local shape index, packed four to
// a word (one byte each) when d <= 256, which every benchmark meets, and
// one to a word otherwise.
type jobEntry struct {
	buf      []int32
	d        int32 // distinct shapes
	tailFrom int32 // the counts cover kernels tailFrom onwards
	lastVer  uint64
	lastCur  int32 // -1 until the first estimate
	lastWGs  int32
	rem      sim.Time // pt.RemainingTime(j.RemainingWGList())
	drain    sim.Time // pt.RemainingDrain(j.RemainingWGList())
}

// packedShapes is the most shapes a byte-packed chain can index.
const packedShapes = 256

// shapeOf returns kernel k's local shape index.
func (e *jobEntry) shapeOf(k int32) int32 {
	chain := e.buf[2*e.d:]
	if e.d > packedShapes {
		return chain[k]
	}
	return chain[k/4] >> (8 * (k % 4)) & 0xff
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

// newJobTable returns an empty table over pt; jobs is the length of the
// system's batch trace, 0 for an online system.
func newJobTable(pt *core.ProfilingTable, jobs int) *jobTable {
	t := &jobTable{pt: pt, slotIdx: make(map[slotKey]int32), jobs: jobs}
	if jobs > 0 {
		st, _ := tableStores.Get().(*tableStore)
		if st == nil {
			st = new(tableStore)
		}
		st.entries = slices.Grow(st.entries[:0], jobs)[:jobs]
		clear(st.entries)
		st.next = 0
		t.entries, t.store = st.entries, st
	}
	return t
}

// release hands a batch table's storage back for a later table to carve
// from. Nothing may read an entry it carved afterwards.
func (t *jobTable) release() {
	if st := t.store; st != nil {
		t.store, t.entries, t.words = nil, nil, nil
		tableStores.Put(st)
	}
}

// register resolves the job's kernel chain to shapes and hangs the entry
// off the JobRun. Called at admission (stream inspection already walks the
// chain there); idempotent.
func (t *jobTable) register(j *cp.JobRun) *jobEntry {
	if e, ok := j.SchedState.(*jobEntry); ok {
		return e
	}
	shapes, local := t.shapes[:0], t.local[:0]
	for _, k := range j.Job.Kernels {
		si := t.slotFor(int32(t.pt.IDFor(k.Name)), int32(k.NumWGs))
		for len(t.localOf) <= int(si) {
			t.localOf = append(t.localOf, 0)
		}
		if t.localOf[si] == 0 {
			shapes = append(shapes, si)
			t.localOf[si] = int32(len(shapes))
		}
		local = append(local, t.localOf[si]-1)
	}
	d := int32(len(shapes))
	words := len(local)
	if d <= packedShapes {
		words = (len(local) + 3) / 4
	}
	e := t.carve(2*int(d) + words)
	e.d, e.lastCur = d, -1
	copy(e.buf, shapes)
	counts, chain := e.buf[d:2*d], e.buf[2*d:]
	for k, li := range local {
		counts[li]++
		if d > packedShapes {
			chain[k] = li
		} else {
			chain[k/4] |= li << (8 * (k % 4))
		}
	}
	for _, si := range shapes {
		t.localOf[si] = 0
	}
	t.shapes, t.local = shapes, local
	j.SchedState = e
	return e
}

// reuse keeps old, the SchedState a retired online job left, when it is
// one of this table's entries (cp.StateReuser).
func (t *jobTable) reuse(old any) {
	if e, ok := old.(*jobEntry); ok {
		t.spare = e
	}
}

// carve cuts a zero entry with a zeroed n-word buf from the slabs, starting
// a new one when the current one is used up — or, when reuse left a spare
// entry, zeroes that one, keeping its buf if it holds n words.
func (t *jobTable) carve(n int) *jobEntry {
	if e := t.spare; e != nil {
		t.spare = nil
		buf := slices.Grow(e.buf[:0], n)[:n]
		clear(buf)
		*e = jobEntry{buf: buf}
		return e
	}
	if len(t.entries) == 0 {
		t.entries = make([]jobEntry, max(t.jobs, 1))
	}
	e := &t.entries[0]
	t.entries = t.entries[1:]
	if len(t.words) < n {
		// Room for this buf and, up to wordChunk, for as many more as the
		// entry slab still expects, if they are of its size: an online
		// table, whose slab is one entry, gets exactly this buf.
		t.words = t.chunk(max(n, min(wordChunk, (len(t.entries)+1)*n)))
	}
	e.buf = t.words[:n:n]
	t.words = t.words[n:]
	return e
}

// chunk returns a zeroed word chunk of at least size words. A batch table
// takes its store's next spare chunk, cleared, when that is large enough,
// and records a new one in the store in its place.
func (t *jobTable) chunk(size int) []int32 {
	st := t.store
	if st == nil {
		return make([]int32, size)
	}
	if st.next < len(st.words) && len(st.words[st.next]) >= size {
		c := st.words[st.next]
		clear(c)
		st.next++
		return c
	}
	c := make([]int32, size)
	if st.next < len(st.words) {
		st.words[st.next] = c
	} else {
		st.words = append(st.words, c)
	}
	st.next++
	return c
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
// jobs return cached values; dirty jobs recompute from the shape counts.
func (t *jobTable) estimates(j *cp.JobRun) (rem, drain sim.Time) {
	e := t.register(j)
	ver := t.pt.Version()
	cur := int32(j.CurrentIndex())
	wgs := int32(j.WGsCompleted())
	if e.lastCur == cur && e.lastVer == ver && e.lastWGs == wgs {
		return e.rem, e.drain
	}
	rem, drain = 0, 0
	if int(cur) < len(j.Job.Kernels) {
		shapes, counts := e.buf[:e.d], e.buf[e.d:2*e.d]
		// Kernels up to the head have left the tail (cur only grows).
		for ; e.tailFrom <= cur; e.tailFrom++ {
			counts[e.shapeOf(e.tailFrom)]--
		}
		// Head kernel: partially complete, so its WG count is live state,
		// not a shared slot.
		n := j.Current().UncompletedWGs()
		ptID := int(t.slots[shapes[e.shapeOf(cur)]].ptID)
		rem += t.pt.KernelTimeID(ptID, n)
		drain += t.pt.DrainTimeID(ptID, n)
		// Tail kernels have not started (chains are sequential), so each is
		// a full launch of one of the job's shapes.
		for i, c := range counts {
			if c > 0 {
				kt, dt := t.slotTimes(shapes[i], ver)
				rem += sim.Time(c) * kt
				drain += sim.Time(c) * dt
			}
		}
	}
	e.lastVer = ver
	e.lastCur = cur
	e.lastWGs = wgs
	e.rem = rem
	e.drain = drain
	return rem, drain
}
