package gpu

import (
	"fmt"
	"strconv"

	"laxgpu/internal/sim"
)

// Device is the workgroup-granular GPU model. The command processor decides
// *which* kernel instances may dispatch and in what order (that is the
// entire subject of the paper); the device decides *where* WGs fit and *how
// long* they take given current memory contention, and reports completions.
type Device struct {
	cfg Config
	eng *sim.Engine
	cus []*computeUnit

	// activeMemDemand is Σ over in-flight WGs of MemIntensity×ThreadsPerWG.
	activeMemDemand float64

	// stallUntil blocks new WG dispatch until the given time; used to model
	// preemption context save/restore (PREMA) without tearing down state.
	stallUntil sim.Time

	// noRoom lists the WG footprints pickCU last refused: no CU fits any of
	// them, hence none fits a footprint needing at least as much of every
	// resource. Between releases room only shrinks (reserve, RetireCUs), so
	// an entry stays true until a release, and a release can only make its
	// own CU fit: roomFreed re-tests that one CU. TryDispatch answers from
	// the list without scanning; placements are untouched.
	noRoom []wgFootprint

	// classes are the distinct WG footprints dispatch has seen, indexed by the
	// dense class id FootprintClass caches on each instance, and blocked[c]
	// holds exactly when classes[c] covers some noRoom entry. noRoom changes
	// in two places — TryDispatch's append and roomFreed — and both keep
	// blocked in step, so "no room for this class" is one array lookup for
	// TryDispatch and for the CP's dispatch round (ClassBlocked).
	classes []wgFootprint
	blocked []bool

	counters Counters
	energy   EnergyMeter

	// onWGComplete is invoked after each WG completion (resources already
	// released), letting the command processor refill the device.
	onWGComplete func(*KernelInstance)

	// onKernelDone is invoked when an instance's last WG completes.
	onKernelDone func(*KernelInstance)

	// onKernelAbort is invoked when an attempt dies of an injected
	// transient fault (the device has already reclaimed its resources).
	onKernelAbort func(*KernelInstance)

	// injector, when set, decides the fate of every kernel attempt.
	injector FaultInjector

	// curBatch is the batch the next WG may join: consecutive WGs of one
	// instance that share a completion instant and between which no other
	// event was scheduled collapse into a single engine event.
	curBatch *wgBatch
	// freeBatches is the batch free list (singly linked through next).
	freeBatches *wgBatch

	// retiredCUs counts CUs permanently removed by RetireCUs.
	retiredCUs int
}

// wgLoad is what one running WG holds besides its CU: its footprint there
// and its share of the memory bandwidth demand. Both are functions of the
// kernel's descriptor.
type wgLoad struct {
	f      wgFootprint
	demand float64
}

// wgBatch is one pooled engine event carrying the completions of a
// contiguous run of same-instance WGs that were dispatched back to back for
// the same completion instant. Firing the batch replays each WG's
// completion in dispatch order, which is exactly the order the per-WG
// events would have fired in: the WGs' would-be sequence numbers were
// consecutive (enforced via Engine.NextSeq at append time), so no foreign
// event could have interleaved.
//
// Every WG of a batch is of one instance, so the batch stores the load once
// and only the CU per WG. The instance links its open batches, which is all
// Kill needs to cancel them and release what their WGs hold. An instance
// that a CP re-initialises for its job's next kernel never joins a batch of
// the kernel before: that kernel is done only once its last WG has
// completed, so none of its batches is still open.
//
// Faulted attempts batch too. A hung attempt's WGs sit in one held batch
// that is never scheduled, and an aborting attempt's batch kills the attempt
// when it fires instead of completing its WGs.
type wgBatch struct {
	d    *Device
	inst *KernelInstance
	ctr  *KernelCounter
	ev   sim.Handle // the batch's event; zero for a held batch
	at   sim.Time   // completion instant
	lat  sim.Time   // dispatch-to-completion latency (same for all WGs)
	load wgLoad     // same for all WGs
	// seqAfter is the engine's next sequence number as of the last append;
	// a WG may join only while it still matches (no event scheduled since).
	seqAfter uint64
	cus      []*computeUnit // one per WG, in dispatch order
	// prev and next link the instance's open batches; next alone links the
	// free list.
	prev, next *wgBatch
}

// Act fires the batch (sim.Action).
func (b *wgBatch) Act() { b.d.completeBatch(b) }

// New constructs a device for the configuration: Reset on a zero Device.
func New(cfg Config, eng *sim.Engine) *Device {
	d := new(Device)
	d.Reset(cfg, eng)
	return d
}

// Reset makes d the device New builds for cfg on eng. A zero Device is built
// from scratch, and so is one last built for another configuration. One
// whose run is over and whose configuration is cfg is recycled: its CUs are
// re-initialised in place, and its counters, energy, stall, no-room memo,
// footprint classes, callbacks and fault injector are cleared, while its
// pool of WG batches is kept. It panics on an invalid configuration: a bad
// machine description is unrecoverable.
func (d *Device) Reset(cfg Config, eng *sim.Engine) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if d.cfg != cfg {
		*d = Device{cus: make([]*computeUnit, cfg.NumCUs)}
		for i := range d.cus {
			d.cus[i] = new(computeUnit)
		}
	}
	perKernel := d.counters.perKernel
	if perKernel == nil {
		perKernel = make(map[string]*KernelCounter)
	}
	clear(perKernel)
	clear(d.counters.byID)
	*d = Device{
		cfg: cfg, eng: eng, cus: d.cus,
		noRoom: d.noRoom[:0], classes: d.classes[:0], blocked: d.blocked[:0],
		counters:    Counters{perKernel: perKernel, byID: d.counters.byID[:0]},
		freeBatches: d.freeBatches,
	}
	for i, cu := range d.cus {
		cu.init(i)
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Counters exposes the performance counters the CP reads. The paper extends
// the GPU with "a new counter that tracks the WG completion rate" (§4.1.1);
// Counters is that hardware.
func (d *Device) Counters() *Counters { return &d.counters }

// Energy exposes the per-instruction energy meter.
func (d *Device) Energy() *EnergyMeter { return &d.energy }

// OnWGComplete registers the callback fired after every WG completion.
func (d *Device) OnWGComplete(fn func(*KernelInstance)) { d.onWGComplete = fn }

// OnKernelDone registers the callback fired when an instance finishes.
func (d *Device) OnKernelDone(fn func(*KernelInstance)) { d.onKernelDone = fn }

// OnKernelAbort registers the callback fired when an attempt dies of an
// injected transient fault. The device has already killed the attempt; the
// instance is ready for redispatch when the callback runs.
func (d *Device) OnKernelAbort(fn func(*KernelInstance)) { d.onKernelAbort = fn }

// SetFaultInjector installs a fault injector consulted at the start of
// every kernel execution attempt. Pass before any dispatch.
func (d *Device) SetFaultInjector(fi FaultInjector) { d.injector = fi }

// Stall blocks new WG dispatch for the given duration from now. In-flight
// WGs are unaffected (they drain naturally). Overlapping stalls extend to
// the later deadline. Models preemption save/restore cost.
func (d *Device) Stall(duration sim.Time) {
	until := d.eng.Now() + duration
	if until > d.stallUntil {
		d.stallUntil = until
	}
}

// Stalled reports whether dispatch is currently blocked by a Stall.
func (d *Device) Stalled() bool { return d.eng.Now() < d.stallUntil }

// StallEndsAt returns the time at which the current stall expires (zero if
// none is pending).
func (d *Device) StallEndsAt() sim.Time { return d.stallUntil }

// TryDispatch places as many WGs of inst as currently fit (up to limit;
// limit < 0 means no limit) and returns the number placed. It panics if the
// kernel could never fit on an empty CU — a workload-definition bug.
func (d *Device) TryDispatch(inst *KernelInstance, limit int) int {
	if d.Stalled() || !inst.Dispatchable() {
		return 0
	}
	c := d.FootprintClass(inst)
	if d.blocked[c] {
		return 0
	}
	f := d.classes[c]
	placed := 0
	for inst.RemainingWGs() > 0 && (limit < 0 || placed < limit) {
		cu := d.pickCU(f)
		if cu == nil {
			d.noRoom = append(d.noRoom, f)
			for k, g := range d.classes {
				if g.covers(f) {
					d.blocked[k] = true
				}
			}
			break
		}
		d.startWG(inst, cu, f)
		placed++
	}
	return placed
}

// FootprintClass returns the dense id of inst's WG-footprint class: kernels
// share a class exactly when one WG of each costs a CU the same resources,
// so the device has room for all of a class or for none. The id is resolved
// once per instance and cached on it, like the counter id. It panics if the
// kernel could never fit on an empty CU — a workload-definition bug.
func (d *Device) FootprintClass(inst *KernelInstance) int {
	if inst.classPlus1 == 0 {
		inst.classPlus1 = int32(d.classOf(inst.Desc)) + 1
	}
	return int(inst.classPlus1) - 1
}

// classOf finds or registers desc's footprint class.
func (d *Device) classOf(desc *KernelDesc) int {
	f := footprintOf(desc)
	for c, g := range d.classes {
		if g == f {
			return c
		}
	}
	if !f.canEverFit() {
		panic(fmt.Sprintf("gpu: kernel %s WG footprint %+v exceeds CU capacity", desc.Name, f))
	}
	d.classes = append(d.classes, f)
	d.blocked = append(d.blocked, d.refused(f))
	return len(d.classes) - 1
}

// ClassBlocked reports whether the device is known to have no room for a WG
// of footprint class c: TryDispatch places nothing for any kernel of the
// class until a release makes room. False promises nothing — the next offer
// may still be refused (and then blocks the class).
func (d *Device) ClassBlocked(c int) bool { return d.blocked[c] }

// refused reports whether f covers a no-room entry, i.e. no CU fits it.
func (d *Device) refused(f wgFootprint) bool {
	for _, g := range d.noRoom {
		if f.covers(g) {
			return true
		}
	}
	return false
}

// pickCU places first-fit: the lowest-index CU with room for the
// footprint, or nil when nothing fits.
func (d *Device) pickCU(f wgFootprint) *computeUnit {
	for _, cu := range d.cus {
		if cu.fits(f) {
			return cu
		}
	}
	return nil
}

// roomFreed drops the no-room entries cu fits after a release on it, and
// re-derives blocked when one was dropped (most releases drop none).
func (d *Device) roomFreed(cu *computeUnit) {
	kept := d.noRoom[:0]
	for _, g := range d.noRoom {
		if !cu.fits(g) {
			kept = append(kept, g)
		}
	}
	if len(kept) == len(d.noRoom) {
		return
	}
	d.noRoom = kept
	for c, f := range d.classes {
		d.blocked[c] = d.refused(f)
	}
}

// startWG reserves resources and schedules the WG's completion. The latency
// is fixed at dispatch: base × ((1−m) + m×slowdown(now)), with slowdown the
// ratio of aggregate active memory demand (including this WG) to the memory
// system's no-slowdown capacity, floored at 1.
func (d *Device) startWG(inst *KernelInstance, cu *computeUnit, f wgFootprint) {
	now := d.eng.Now()
	cu.reserve(f)
	if inst.state == KernelReady && d.injector != nil {
		// First WG of a fresh attempt: draw its fate.
		inst.fault = d.injector.KernelLaunch(now, inst.JobID, inst.Seq, inst.Attempt)
	}
	inst.noteDispatch(now)

	load := wgLoad{f: f, demand: inst.Desc.MemIntensity * float64(inst.Desc.ThreadsPerWG)}
	d.activeMemDemand += load.demand

	lat := d.wgLatency(inst.Desc)
	if inst.fault.Outcome == FaultSlow && inst.fault.SlowFactor > 1 {
		lat = sim.Time(float64(lat) * inst.fault.SlowFactor)
	}
	ctr := d.counterFor(inst)
	d.counters.noteDispatch(ctr, now)
	d.batchWG(inst, ctr, now+lat, lat, cu, load)
}

// counterFor resolves the instance's counter block, caching the dense
// counter ID on the instance so steady-state dispatch skips the name map.
func (d *Device) counterFor(inst *KernelInstance) *KernelCounter {
	if inst.cidPlus1 == 0 {
		inst.cidPlus1 = int32(d.counters.idFor(inst.Desc.Name)) + 1
	}
	return d.counters.byID[inst.cidPlus1-1]
}

// batchWG adds the WG to a batch of its instance. A hung attempt's WGs join
// its one held batch, which is never scheduled: they hold their CUs and
// demand until Kill. Any other WG joins the open batch when that provably
// preserves event order — same instance, same completion instant, and no
// event scheduled since the batch's own (so the per-WG events' sequence
// numbers would have been consecutive) — and otherwise opens a new batch.
func (d *Device) batchWG(inst *KernelInstance, ctr *KernelCounter, at, lat sim.Time, cu *computeUnit, load wgLoad) {
	b := d.curBatch
	switch {
	case inst.fault.Outcome == FaultHang:
		// Every open batch of the attempt is the held one.
		if b = inst.batches; b == nil {
			b = d.openBatch(inst, ctr, at, lat, load)
		}
	case b == nil || b.inst != inst || b.at != at || d.eng.NextSeq() != b.seqAfter:
		b = d.openBatch(inst, ctr, at, lat, load)
		b.ev = d.eng.ScheduleAct(at, b)
		b.seqAfter = d.eng.NextSeq()
		d.curBatch = b
	}
	b.cus = append(b.cus, cu)
}

// openBatch takes a batch off the free list (or allocates the first time)
// and links it at the head of the instance's open batches.
func (d *Device) openBatch(inst *KernelInstance, ctr *KernelCounter, at, lat sim.Time, load wgLoad) *wgBatch {
	b := d.freeBatches
	if b == nil {
		// A batch holds the WGs dispatched back to back for one instant,
		// rarely more than one per CU: sized so appends seldom grow it.
		b = &wgBatch{d: d, cus: make([]*computeUnit, 0, len(d.cus))}
	} else {
		d.freeBatches = b.next
	}
	b.inst, b.ctr, b.at, b.lat, b.load = inst, ctr, at, lat, load
	b.next = inst.batches
	if b.next != nil {
		b.next.prev = b
	}
	inst.batches = b
	return b
}

// completeBatch fires a batch. An aborting attempt's batch kills the attempt
// — reclaiming this batch with the others — and tells the CP it may retry.
// Any other batch replays each WG completion in dispatch order and is
// recycled. New WGs dispatched by the completion callbacks open fresh
// batches (curBatch is cleared first, and the batch is unlinked from its
// instance), so the struct is never appended to while firing.
func (d *Device) completeBatch(b *wgBatch) {
	if d.curBatch == b {
		d.curBatch = nil
	}
	inst := b.inst
	if inst.fault.Outcome == FaultAbort {
		d.Kill(inst)
		if d.onKernelAbort != nil {
			d.onKernelAbort(inst)
		}
		return
	}
	if b.prev == nil {
		inst.batches = b.next
	} else {
		b.prev.next = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	ctr, lat, load := b.ctr, b.lat, b.load
	for _, cu := range b.cus {
		d.completeWG(inst, ctr, lat, cu, load)
	}
	d.putBatch(b)
}

// completeWG performs one WG completion: release resources, fold the
// latency into the counters, and notify the CP.
func (d *Device) completeWG(inst *KernelInstance, ctr *KernelCounter, lat sim.Time, cu *computeUnit, load wgLoad) {
	cu.release(load.f)
	d.roomFreed(cu)
	d.activeMemDemand -= load.demand
	if d.activeMemDemand < 1e-9 {
		d.activeMemDemand = 0
	}
	now := d.eng.Now()
	inst.noteComplete(now)
	d.counters.noteComplete(ctr, now, lat)
	d.energy.addWG(inst.Desc)
	if d.onWGComplete != nil {
		d.onWGComplete(inst)
	}
	if inst.Done() && d.onKernelDone != nil {
		d.onKernelDone(inst)
	}
}

// putBatch recycles a fired or killed batch: payload references are dropped
// so pooled structs never pin instances, but the CU list's backing array is
// kept.
func (d *Device) putBatch(b *wgBatch) {
	b.inst, b.ctr, b.prev = nil, nil, nil
	b.ev = sim.Handle{}
	b.cus = b.cus[:0]
	b.next = d.freeBatches
	d.freeBatches = b
}

// Kill aborts the instance's current execution attempt: its open batches are
// cancelled and every WG in them releases what it holds, dispatched-but-
// unfinished work is rolled back (completed WGs are kept), and the instance
// returns to ready under a new Attempt number. Returns the number of WGs
// reclaimed.
func (d *Device) Kill(inst *KernelInstance) int {
	now := d.eng.Now()
	killed := 0
	for b := inst.batches; b != nil; {
		next := b.next
		b.ev.Cancel() // no-op for a held batch and for one firing now
		if d.curBatch == b {
			d.curBatch = nil
		}
		for _, cu := range b.cus {
			cu.release(b.load.f)
			d.roomFreed(cu)
			d.activeMemDemand -= b.load.demand
			d.counters.noteKilled(b.ctr, now)
		}
		killed += len(b.cus)
		d.putBatch(b)
		b = next
	}
	inst.batches = nil
	if d.activeMemDemand < 1e-9 {
		d.activeMemDemand = 0
	}
	inst.resetAttempt()
	return killed
}

// RetireCUs permanently removes up to n CUs from WG placement, highest
// index first (in-flight WGs drain naturally). Returns the number actually
// retired.
func (d *Device) RetireCUs(n int) int {
	retired := 0
	for i := len(d.cus) - 1; i >= 0 && retired < n; i-- {
		if !d.cus[i].retired {
			d.cus[i].retired = true
			retired++
		}
	}
	d.retiredCUs += retired
	return retired
}

// ActiveCUs returns the number of CUs still accepting work.
func (d *Device) ActiveCUs() int { return len(d.cus) - d.retiredCUs }

// RetiredCUsCount returns the number of CUs lost to RetireCUs.
func (d *Device) RetiredCUsCount() int { return d.retiredCUs }

// wgLatency computes the contention-stretched latency of one WG of desc if
// it were dispatched now: the memory fraction stretches with the one
// bandwidth pool's contention.
func (d *Device) wgLatency(desc *KernelDesc) sim.Time {
	return sim.Time(float64(desc.BaseWGTime) * d.cfg.Stretch(desc.MemIntensity, d.activeMemDemand))
}

// ActiveWGs returns the number of in-flight workgroups across all CUs.
func (d *Device) ActiveWGs() int {
	n := 0
	for _, cu := range d.cus {
		n += cu.activeWGs
	}
	return n
}

// String renders everything WG placement can observe — per CU its id, WG
// count and free threads, wavefronts, VGPR and LDS bytes — for logs and test
// failures: two devices that print the same place the same WG on the same
// CU. Built with strconv, not fmt, because the dispatch differential test
// prints one per placement.
func (d *Device) String() string {
	var b []byte
	for i, cu := range d.cus {
		if i > 0 {
			b = append(b, ' ')
		}
		for _, v := range [...]int{cu.id, cu.activeWGs, cu.threadsFree, cu.wavefrontsFree, cu.vgprFree, cu.ldsFree} {
			b = append(strconv.AppendInt(b, int64(v), 10), '/')
		}
		if cu.retired {
			b = append(b, "retired"...)
		}
	}
	return string(b)
}

// Utilization returns the fraction of device thread contexts occupied.
func (d *Device) Utilization() float64 {
	var sum float64
	for _, cu := range d.cus {
		sum += cu.utilization()
	}
	return sum / float64(len(d.cus))
}

// CanFit reports whether the device could place one WG of desc right now:
// some non-retired CU has room for its footprint and the device is not
// stalled. It is a pure query — unlike TryDispatch it reserves nothing —
// so observers (the verification checker's dispatch-order rule) can probe
// occupancy without perturbing the run.
func (d *Device) CanFit(desc *KernelDesc) bool {
	if d.Stalled() {
		return false
	}
	return d.pickCU(footprintOf(desc)) != nil
}

// MaxConcurrentWGs returns how many WGs of desc the device could host
// simultaneously if idle, counting only non-retired CUs — admission
// heuristics see the *current* capacity of a degraded device, not nominal.
func (d *Device) MaxConcurrentWGs(desc *KernelDesc) int {
	return maxWGsPerCU(desc) * d.ActiveCUs()
}

// MaxConcurrentWGs computes, for an idle device with the given config, the
// number of WGs of desc that fit simultaneously.
func MaxConcurrentWGs(cfg Config, desc *KernelDesc) int {
	return maxWGsPerCU(desc) * cfg.NumCUs
}

func maxWGsPerCU(desc *KernelDesc) int {
	f := footprintOf(desc)
	perCU := ThreadsPerCU / max(1, f.threads)
	if f.wavefronts > 0 {
		perCU = min(perCU, WavefrontsPerCU/f.wavefronts)
	}
	if f.vgpr > 0 {
		perCU = min(perCU, VGPRBytesPerCU/f.vgpr)
	}
	if f.lds > 0 {
		perCU = min(perCU, LDSBytesPerCU/f.lds)
	}
	return perCU
}

// IsolatedKernelTime returns the time one launch of desc takes on an
// otherwise idle device: WGs run in ceil(NumWGs / maxConcurrent) waves of
// BaseWGTime each (memory slowdown from the kernel's own WGs included).
func IsolatedKernelTime(cfg Config, desc *KernelDesc) sim.Time {
	conc := maxWGsPerCU(desc) * cfg.NumCUs
	if conc <= 0 {
		return sim.Forever
	}
	if conc > desc.NumWGs {
		conc = desc.NumWGs
	}
	waves := (desc.NumWGs + conc - 1) / conc
	demand := float64(conc) * desc.MemIntensity * float64(desc.ThreadsPerWG)
	perWave := sim.Time(float64(desc.BaseWGTime) * cfg.Stretch(desc.MemIntensity, demand))
	return sim.Time(waves) * perWave
}

// SerialTime is the sum of the kernels' isolated times under cfg: a job's
// latency when run alone (its kernels are sequentially dependent), and the
// offline profile every statically profiled estimate keys on.
func SerialTime(cfg Config, kernels []*KernelDesc) sim.Time {
	var t sim.Time
	for _, k := range kernels {
		t += IsolatedKernelTime(cfg, k)
	}
	return t
}
