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
	// With the two-level model enabled it carries only the DRAM (L2-miss)
	// share, and activeL2Demand carries the L2-hit share.
	activeMemDemand float64
	activeL2Demand  float64

	// stallUntil blocks new WG dispatch until the given time; used to model
	// preemption context save/restore (PREMA) without tearing down state.
	stallUntil sim.Time

	// rrCursor is RoundRobin placement's scan start.
	rrCursor int

	// noRoom lists the WG footprints pickCU last refused: no CU fits any of
	// them, hence none fits a footprint needing at least as much of every
	// resource. Between releases room only shrinks (reserve, RetireCUs), so
	// an entry stays true until a release, and a release can only make its
	// own CU fit: roomFreed re-tests that one CU. TryDispatch answers from
	// the list without scanning; placements and rrCursor are untouched.
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

	// track enables per-instance in-flight WG bookkeeping so Kill can
	// reclaim resources. Off on the healthy fast path; turned on when an
	// injector is installed or the CP arms its watchdog.
	track    bool
	inflight map[*KernelInstance][]*wgInFlight

	// curBatch is the open WG-completion batch: consecutive WGs of one
	// instance that share a completion instant and between which no other
	// event was scheduled collapse into a single engine event. Only used on
	// the untracked fast path.
	curBatch *wgBatch
	// freeBatches is the batch free list (singly linked through next).
	freeBatches *wgBatch

	// retiredCUs counts CUs permanently removed by RetireCUs.
	retiredCUs int
}

// wgInFlight records one dispatched, uncompleted WG so a kill can cancel
// its completion and release what it holds. Only the tracked (fault /
// watchdog) path allocates these; the healthy path batches completions
// through pooled wgBatch structs instead.
type wgInFlight struct {
	ev       sim.Handle // zero for hung WGs (they never scheduled one)
	cu       *computeUnit
	f        wgFootprint
	demand   float64
	l2demand float64
}

// wgEntry is one WG's share of a completion batch.
type wgEntry struct {
	cu       *computeUnit
	f        wgFootprint
	demand   float64
	l2demand float64
}

// wgBatch is one pooled engine event carrying the completions of a
// contiguous run of same-instance WGs that were dispatched back to back for
// the same completion instant. Firing the batch replays each WG's
// completion in dispatch order, which is exactly the order the per-WG
// events would have fired in: the entries' would-be sequence numbers were
// consecutive (enforced via Engine.NextSeq at append time), so no foreign
// event could have interleaved.
type wgBatch struct {
	d    *Device
	inst *KernelInstance
	ctr  *KernelCounter
	at   sim.Time // completion instant
	lat  sim.Time // dispatch-to-completion latency (same for all entries)
	// seqAfter is the engine's next sequence number as of the last append;
	// a WG may join only while it still matches (no event scheduled since).
	seqAfter uint64
	entries  []wgEntry
	next     *wgBatch // free list link
}

// Act fires the batch (sim.Action).
func (b *wgBatch) Act() { b.d.completeBatch(b) }

// New constructs a device for the configuration. It panics on an invalid
// configuration: device construction happens once at experiment setup and a
// bad machine description is unrecoverable.
func New(cfg Config, eng *sim.Engine) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Device{cfg: cfg, eng: eng}
	d.cus = make([]*computeUnit, cfg.NumCUs)
	for i := range d.cus {
		d.cus[i] = newComputeUnit(i, cfg)
	}
	d.counters.perKernel = make(map[string]*KernelCounter)
	return d
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
// every kernel execution attempt, and enables the WG tracking a kill
// needs. Pass before any dispatch.
func (d *Device) SetFaultInjector(fi FaultInjector) {
	d.injector = fi
	d.EnableWGTracking()
}

// EnableWGTracking turns on per-instance in-flight bookkeeping so Kill can
// reclaim a running attempt's resources. The CP enables it when its
// watchdog is armed; SetFaultInjector enables it implicitly.
func (d *Device) EnableWGTracking() {
	d.track = true
	if d.inflight == nil {
		d.inflight = make(map[*KernelInstance][]*wgInFlight)
	}
}

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
	f := footprintOf(desc, d.cfg.WavefrontSize)
	for c, g := range d.classes {
		if g == f {
			return c
		}
	}
	if !d.cus[0].canEverFit(f) {
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

// pickCU selects a CU with room for the footprint per the configured
// placement policy, or nil when nothing fits.
func (d *Device) pickCU(f wgFootprint) *computeUnit {
	switch d.cfg.Placement {
	case BestFit:
		var best *computeUnit
		for _, cu := range d.cus {
			if !cu.fits(f) {
				continue
			}
			if best == nil || cu.threadsFree < best.threadsFree {
				best = cu
			}
		}
		return best
	case RoundRobin:
		n := len(d.cus)
		for i := 0; i < n; i++ {
			cu := d.cus[(d.rrCursor+i)%n]
			if cu.fits(f) {
				d.rrCursor = (d.rrCursor + i + 1) % n
				return cu
			}
		}
		return nil
	default: // FirstFit
		for _, cu := range d.cus {
			if cu.fits(f) {
				return cu
			}
		}
		return nil
	}
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

	demand := inst.Desc.MemIntensity * float64(inst.Desc.ThreadsPerWG)
	l2Demand := 0.0
	if d.cfg.L2BandwidthDemand > 0 {
		l2Demand = demand * inst.Desc.L2HitFrac
		demand -= l2Demand
	}
	d.activeMemDemand += demand
	d.activeL2Demand += l2Demand

	lat := d.wgLatency(inst.Desc)
	if inst.fault.Outcome == FaultSlow && inst.fault.SlowFactor > 1 {
		lat = sim.Time(float64(lat) * inst.fault.SlowFactor)
	}
	ctr := d.counterFor(inst)
	d.counters.noteDispatch(ctr, now)

	if !d.track {
		// Healthy fast path: no kill can ever target this WG, so no
		// per-WG bookkeeping — fold the completion into a batch event.
		d.batchWG(inst, ctr, now+lat, lat, wgEntry{cu: cu, f: f, demand: demand, l2demand: l2Demand})
		return
	}

	wg := &wgInFlight{cu: cu, f: f, demand: demand, l2demand: l2Demand}
	switch inst.fault.Outcome {
	case FaultHang:
		// The WG holds its CU and memory demand forever; only Kill (the
		// CP watchdog) releases it. No completion is scheduled.
		d.trackWG(inst, wg)
		return
	case FaultAbort:
		// The attempt dies with its first failing WG: everything in
		// flight is reclaimed and the CP is told it may retry.
		wg.ev = d.eng.Schedule(now+lat, func() {
			d.Kill(inst)
			if d.onKernelAbort != nil {
				d.onKernelAbort(inst)
			}
		})
		d.trackWG(inst, wg)
		return
	}
	wg.ev = d.eng.Schedule(now+lat, func() {
		d.untrackWG(inst, wg)
		d.completeWG(inst, ctr, lat, wgEntry{cu: cu, f: f, demand: demand, l2demand: l2Demand})
	})
	d.trackWG(inst, wg)
}

// counterFor resolves the instance's counter block, caching the dense
// counter ID on the instance so steady-state dispatch skips the name map.
func (d *Device) counterFor(inst *KernelInstance) *KernelCounter {
	if inst.cidPlus1 == 0 {
		inst.cidPlus1 = int32(d.counters.idFor(inst.Desc.Name)) + 1
	}
	return d.counters.byID[inst.cidPlus1-1]
}

// batchWG appends the WG to the open completion batch when it provably
// preserves event order — same instance, same completion instant, and no
// event scheduled since the batch's own (so the per-WG events' sequence
// numbers would have been consecutive) — and otherwise opens a new batch.
func (d *Device) batchWG(inst *KernelInstance, ctr *KernelCounter, at, lat sim.Time, en wgEntry) {
	b := d.curBatch
	if b == nil || b.inst != inst || b.at != at || d.eng.NextSeq() != b.seqAfter {
		b = d.getBatch()
		b.inst = inst
		b.ctr = ctr
		b.at = at
		b.lat = lat
		d.eng.ScheduleAct(at, b)
		b.seqAfter = d.eng.NextSeq()
		d.curBatch = b
	}
	b.entries = append(b.entries, en)
}

// completeBatch replays each batched WG completion in dispatch order and
// recycles the batch. New WGs dispatched by the completion callbacks open
// fresh batches (curBatch is cleared first), so the struct is never
// appended to while firing.
func (d *Device) completeBatch(b *wgBatch) {
	if d.curBatch == b {
		d.curBatch = nil
	}
	inst, ctr, lat := b.inst, b.ctr, b.lat
	for i := range b.entries {
		d.completeWG(inst, ctr, lat, b.entries[i])
	}
	d.putBatch(b)
}

// completeWG performs one WG completion: release resources, fold the
// latency into the counters, and notify the CP.
func (d *Device) completeWG(inst *KernelInstance, ctr *KernelCounter, lat sim.Time, en wgEntry) {
	en.cu.release(en.f)
	d.roomFreed(en.cu)
	d.activeMemDemand -= en.demand
	d.activeL2Demand -= en.l2demand
	if d.activeMemDemand < 1e-9 {
		d.activeMemDemand = 0
	}
	if d.activeL2Demand < 1e-9 {
		d.activeL2Demand = 0
	}
	now := d.eng.Now()
	inst.noteComplete(now)
	d.counters.noteComplete(ctr, now, lat)
	d.energy.addWG(inst.Desc, d.cfg.EnergyPerInstPJ)
	if d.onWGComplete != nil {
		d.onWGComplete(inst)
	}
	if inst.Done() && d.onKernelDone != nil {
		d.onKernelDone(inst)
	}
}

// getBatch takes a batch struct off the free list (or allocates the first
// time).
func (d *Device) getBatch() *wgBatch {
	b := d.freeBatches
	if b == nil {
		return &wgBatch{d: d}
	}
	d.freeBatches = b.next
	b.next = nil
	return b
}

// putBatch recycles a fired batch: payload references are dropped so pooled
// structs never pin instances, but the entries backing array is kept.
func (d *Device) putBatch(b *wgBatch) {
	b.inst = nil
	b.ctr = nil
	b.entries = b.entries[:0]
	b.next = d.freeBatches
	d.freeBatches = b
}

func (d *Device) trackWG(inst *KernelInstance, wg *wgInFlight) {
	if !d.track {
		return
	}
	d.inflight[inst] = append(d.inflight[inst], wg)
}

func (d *Device) untrackWG(inst *KernelInstance, wg *wgInFlight) {
	if !d.track {
		return
	}
	list := d.inflight[inst]
	for i, w := range list {
		if w == wg {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(d.inflight, inst)
	} else {
		d.inflight[inst] = list
	}
}

// Kill aborts the instance's current execution attempt: every in-flight WG
// is cancelled and its resources reclaimed, dispatched-but-unfinished work
// is rolled back (completed WGs are kept), and the instance returns to
// ready under a new Attempt number. Returns the number of WGs reclaimed.
// Requires WG tracking (a fault injector or the CP watchdog).
func (d *Device) Kill(inst *KernelInstance) int {
	entries := d.inflight[inst]
	delete(d.inflight, inst)
	now := d.eng.Now()
	for _, wg := range entries {
		wg.ev.Cancel() // no-op for hung WGs (zero Handle) and fired events
		wg.cu.release(wg.f)
		d.roomFreed(wg.cu)
		d.activeMemDemand -= wg.demand
		d.activeL2Demand -= wg.l2demand
		d.counters.noteKilled(d.counterFor(inst), now)
	}
	if d.activeMemDemand < 1e-9 {
		d.activeMemDemand = 0
	}
	if d.activeL2Demand < 1e-9 {
		d.activeL2Demand = 0
	}
	inst.resetAttempt()
	return len(entries)
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
// it were dispatched now. Under the single-level model the whole memory
// fraction stretches with DRAM contention; under the two-level model the
// kernel's L2-hit share stretches with L2-pool contention and the miss
// share with DRAM contention.
func (d *Device) wgLatency(desc *KernelDesc) sim.Time {
	dramSlow := d.activeMemDemand / d.cfg.MemBandwidthDemand
	if dramSlow < 1 {
		dramSlow = 1
	}
	base := float64(desc.BaseWGTime)
	m := desc.MemIntensity
	if d.cfg.L2BandwidthDemand <= 0 {
		return sim.Time(base * ((1 - m) + m*dramSlow))
	}
	l2Slow := d.activeL2Demand / d.cfg.L2BandwidthDemand
	if l2Slow < 1 {
		l2Slow = 1
	}
	h := desc.L2HitFrac
	memStretch := h*l2Slow + (1-h)*dramSlow
	return sim.Time(base * ((1 - m) + m*memStretch))
}

// Slowdown returns the current memory contention factor (≥ 1).
func (d *Device) Slowdown() float64 {
	slow := d.activeMemDemand / d.cfg.MemBandwidthDemand
	if slow < 1 {
		return 1
	}
	return slow
}

// ActiveWGs returns the number of in-flight workgroups across all CUs.
func (d *Device) ActiveWGs() int {
	n := 0
	for _, cu := range d.cus {
		n += cu.activeWGs
	}
	return n
}

// String renders everything WG placement can observe — the round-robin
// cursor, then per CU its id, WG count and free threads, wavefronts, VGPR and
// LDS bytes — for logs and test failures: two devices that print the same
// place the same WG on the same CU. Built with strconv, not fmt, because the
// dispatch differential test prints one per placement.
func (d *Device) String() string {
	b := strconv.AppendInt([]byte("rr="), int64(d.rrCursor), 10)
	for _, cu := range d.cus {
		b = append(b, ' ')
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

// FreeThreads returns the number of unoccupied thread contexts device-wide.
func (d *Device) FreeThreads() int {
	n := 0
	for _, cu := range d.cus {
		n += cu.threadsFree
	}
	return n
}

// CanFit reports whether the device could place one WG of desc right now:
// some non-retired CU has room for its footprint and the device is not
// stalled. It is a pure query — unlike TryDispatch it reserves nothing and
// does not advance the round-robin placement cursor — so observers (the
// verification checker's dispatch-order rule) can probe occupancy without
// perturbing the run.
func (d *Device) CanFit(desc *KernelDesc) bool {
	if d.Stalled() {
		return false
	}
	f := footprintOf(desc, d.cfg.WavefrontSize)
	for _, cu := range d.cus {
		if cu.fits(f) {
			return true
		}
	}
	return false
}

// MaxConcurrentWGs returns how many WGs of desc the device could host
// simultaneously if idle, counting only non-retired CUs — admission
// heuristics see the *current* capacity of a degraded device, not nominal.
func (d *Device) MaxConcurrentWGs(desc *KernelDesc) int {
	return maxWGsPerCU(&d.cfg, desc) * d.ActiveCUs()
}

// IsolatedKernelTime is the package-level IsolatedKernelTime on the
// device's nominal configuration (the offline profile: retired CUs still
// count), read in place — Config is 96 bytes and callers sum over chains.
func (d *Device) IsolatedKernelTime(desc *KernelDesc) sim.Time {
	return isolatedKernelTime(&d.cfg, desc)
}

// MaxConcurrentWGs computes, for an idle device with the given config, the
// number of WGs of desc that fit simultaneously.
func MaxConcurrentWGs(cfg Config, desc *KernelDesc) int {
	return maxWGsPerCU(&cfg, desc) * cfg.NumCUs
}

func maxWGsPerCU(cfg *Config, desc *KernelDesc) int {
	f := footprintOf(desc, cfg.WavefrontSize)
	perCU := cfg.ThreadsPerCU / max(1, f.threads)
	if f.wavefronts > 0 { // WavefrontsPerCU, minus its by-value receiver
		perCU = min(perCU, cfg.SIMDPerCU*cfg.WavefrontsPerSIMD/f.wavefronts)
	}
	if f.vgpr > 0 {
		perCU = min(perCU, cfg.VGPRBytesPerCU/f.vgpr)
	}
	if f.lds > 0 {
		perCU = min(perCU, cfg.LDSBytesPerCU/f.lds)
	}
	return perCU
}

// IsolatedKernelTime returns the time one launch of desc takes on an
// otherwise idle device: WGs run in ceil(NumWGs / maxConcurrent) waves of
// BaseWGTime each (memory slowdown from the kernel's own WGs included).
func IsolatedKernelTime(cfg Config, desc *KernelDesc) sim.Time {
	return isolatedKernelTime(&cfg, desc)
}

func isolatedKernelTime(cfg *Config, desc *KernelDesc) sim.Time {
	conc := maxWGsPerCU(cfg, desc) * cfg.NumCUs
	if conc <= 0 {
		return sim.Forever
	}
	if conc > desc.NumWGs {
		conc = desc.NumWGs
	}
	waves := (desc.NumWGs + conc - 1) / conc
	demand := float64(conc) * desc.MemIntensity * float64(desc.ThreadsPerWG)
	slow := demand / cfg.MemBandwidthDemand
	if slow < 1 {
		slow = 1
	}
	m := desc.MemIntensity
	perWave := sim.Time(float64(desc.BaseWGTime) * ((1 - m) + m*slow))
	return sim.Time(waves) * perWave
}
