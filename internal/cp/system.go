package cp

import (
	"context"
	"fmt"
	"sort"

	"laxgpu/internal/core"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// SystemConfig holds the offload-path parameters from §5 of the paper.
type SystemConfig struct {
	GPU gpu.Config

	// NumQueues is the number of hardware compute queues (Table 2: 128).
	// If more jobs are admitted than queues exist, the excess waits on the
	// host until a queue frees.
	NumQueues int

	// ParseStreams and ParseLatency model stream inspection bandwidth: the
	// CP "can parse four streams in parallel every 2 µs" (§5).
	ParseStreams int
	ParseLatency sim.Time

	// PriorityLevels, when positive, quantizes job priorities into that
	// many hardware levels at dispatch time — contemporary GPUs expose
	// only "a limited number of priorities (e.g., high and low)" (§2.2),
	// whereas the paper's proposal assumes the CP can order queues by full
	// laxity values. 0 means unlimited (the paper's design).
	PriorityLevels int

	// Recovery configures the fault watchdog / retry / CPU-fallback
	// machinery. The zero value disables it.
	Recovery RecoveryConfig
}

// DefaultSystemConfig returns the paper's simulated system.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		GPU:          gpu.DefaultConfig(),
		NumQueues:    128,
		ParseStreams: 4,
		ParseLatency: 2 * sim.Microsecond,
	}
}

// System wires a device, a command processor, a policy and a job trace into
// a runnable simulation. It owns all job state transitions.
type System struct {
	cfg SystemConfig
	eng *sim.Engine
	dev *gpu.Device
	pol Policy

	// jobs is a sliding window over job IDs: jobs[id-base]. Batch mode keeps
	// the whole trace (base stays 0); online mode retires the terminal prefix
	// after every terminal transition (see retire), so the window spans the
	// oldest unfinished job to the newest submission — live work, not history.
	jobs []*JobRun
	base int

	active  []*JobRun // admitted, unfinished, holding a queue
	hostQ   []*JobRun // admitted, waiting for a free queue
	blocked []*JobRun // waiting on the policy's AdvanceGate

	// orderer and observer are the policy's Orderer and ServeObserver
	// interfaces, type-asserted once at construction so the per-dispatch hot
	// path does no interface probing.
	orderer  Orderer
	observer ServeObserver

	// orderCache memoizes dispatchOrder for non-Orderer policies. The sort's
	// comparator is a total order (Job.ID tie-break), so its output is a pure
	// function of (active set, priorities, SubmitTimes); SubmitTime and ID
	// are immutable once a job is active, so the cache revalidates by
	// checking membership (orderValid, cleared on every active-set mutation)
	// and comparing each job's Priority against the stamp taken at sort time
	// — O(n) compares instead of an O(n log n) sort per WG completion,
	// robust against priority writes from any policy hook.
	orderCache []*JobRun
	orderPrios []int64
	orderValid bool

	// ready[c] counts the active jobs whose current kernel is Dispatchable
	// and of device footprint class c (gpu.Device.FootprintClass). With the
	// device's per-class blocked bit it tells Dispatch when a round can place
	// nothing: no class has a ready kernel the device has room for. The two
	// hot transitions keep it exact — markReady adds, a placement that leaves
	// no WG to dispatch subtracts — and every other way a kernel becomes or
	// stops being dispatchable (a policy pausing or resuming jobs, Cancel,
	// all of recovery.go) sets readyStale instead; the next round then walks
	// every job, as every round used to, and recounts as it goes. Too high a
	// count costs a wasted walk, too low a count skips a placement, so any
	// transition not provably covered marks the counts stale.
	ready      []int
	readyStale bool

	// offers and placements count the kernels Dispatch offered to the device
	// and the offers that placed a WG (see DispatchStats).
	offers, placements int64

	freeQueues []int

	// parserFreeAt models ParseStreams parallel inspection slots.
	parserFreeAt []sim.Time

	// hostFreeAt models the host-side launch pipe for CPU-side policies: a
	// single driver thread issues kernel launches one PerKernelLaunch
	// round trip at a time, shared across every job. This is what caps
	// CPU-side schedulers on many-kernel workloads — the aggregate launch
	// demand can exceed the pipe's bandwidth.
	hostFreeAt sim.Time

	arrivalsLeft   int
	timerArmed     bool
	stallKickArmed bool

	// probe observes scheduler decisions and kernel lifecycle events. It
	// never influences the simulation: every call site is a pure read of
	// state the run already computed, and a nil probe costs one pointer
	// compare (see the harness golden-equivalence test).
	probe obs.Probe

	// runStarted latches once RunContext begins so probe attachment after
	// the fact is rejected (see SetProbe).
	runStarted bool

	// online marks a system driven by StartOnline/SubmitNow instead of a
	// pre-scheduled trace (see online.go). The reprioritization timer then
	// self-arms on the same k·Interval grid sim mode ticks on, so both
	// modes make identical scheduling decisions for identical submissions.
	online bool

	completed int
	rejected  int

	// Fault-recovery state (see recovery.go). wdTable is the recovery-owned
	// Kernel Profiling Table the watchdog derives its timeouts from;
	// wdKernels remembers each kernel desc so capacities can be
	// re-registered after a CU retirement.
	injector        gpu.FaultInjector
	retirements     []gpu.Retirement
	faultsInstalled bool
	recStats        RecoveryStats
	wdTimers        map[*gpu.KernelInstance]*wdEntry
	wdTable         *core.ProfilingTable
	wdKernels       map[string]*gpu.KernelDesc
}

// NewSystem builds a system for the job set under the policy. The job set
// is not mutated; a JobRun is created per job.
func NewSystem(cfg SystemConfig, set *workload.JobSet, pol Policy) *System {
	if cfg.NumQueues <= 0 || cfg.ParseStreams <= 0 {
		panic(fmt.Sprintf("cp: invalid system config %+v", cfg))
	}
	s := &System{
		cfg:        cfg,
		eng:        sim.NewEngine(),
		pol:        pol,
		readyStale: true,
	}
	s.dev = gpu.New(cfg.GPU, s.eng)
	s.dev.OnWGComplete(s.onWGComplete)
	s.dev.OnKernelDone(s.onKernelDone)
	if cfg.Recovery.Watchdog {
		s.dev.EnableWGTracking()
		s.wdTimers = make(map[*gpu.KernelInstance]*wdEntry)
		s.wdTable = core.NewProfilingTable(1)
		s.wdKernels = make(map[string]*gpu.KernelDesc)
	}
	s.parserFreeAt = make([]sim.Time, cfg.ParseStreams)
	s.freeQueues = make([]int, cfg.NumQueues)
	for i := range s.freeQueues {
		s.freeQueues[i] = cfg.NumQueues - 1 - i // pop from the back → queue 0 first
	}
	s.jobs = make([]*JobRun, len(set.Jobs))
	for i, job := range set.Jobs {
		if job.ID != i {
			panic(fmt.Sprintf("cp: job IDs must be dense, got %d at %d", job.ID, i))
		}
		s.jobs[i] = s.newJobRun(job)
	}
	pol.Attach(s)
	s.orderer, _ = pol.(Orderer)
	s.observer, _ = pol.(ServeObserver)
	return s
}

// Engine returns the simulation engine (policies schedule their own events
// through it).
func (s *System) Engine() *sim.Engine { return s.eng }

// Device returns the GPU model.
func (s *System) Device() *gpu.Device { return s.dev }

// Config returns the system configuration the run was built with.
func (s *System) Config() SystemConfig { return s.cfg }

// Now returns the current simulated time.
func (s *System) Now() sim.Time { return s.eng.Now() }

// Jobs returns every job in the trace, indexed by job ID. In online mode it
// covers only the live window — the oldest unfinished job onwards — because
// terminal jobs are retired; callers there keep the JobRun SubmitNow returns.
func (s *System) Jobs() []*JobRun { return s.jobs }

// Active returns the jobs currently admitted and unfinished, in arrival
// order. The caller must not retain or mutate the slice across events.
func (s *System) Active() []*JobRun { return s.active }

// Job returns the JobRun for a job ID, or nil for an ID online mode has
// already retired.
func (s *System) Job(id int) *JobRun {
	if id < s.base {
		return nil
	}
	return s.jobs[id-s.base]
}

// SetProbe installs a decision probe (see obs.Probe); obs.Multi combines
// several. Pass nil to disable. Must be called before Run: a probe attached
// to a run already in progress would record in-flight jobs with no arrivals
// — unusable for timeline reconstruction or invariant checking — so it
// panics instead of producing a silently truncated record.
func (s *System) SetProbe(p obs.Probe) {
	if s.runStarted {
		panic("cp: SetProbe after Run has started (attach observers before running)")
	}
	s.probe = p
}

// Probe returns the attached decision probe (nil when none). Policies call
// this from their Admit/Reprioritize hooks to emit decision events.
func (s *System) Probe() obs.Probe { return s.probe }

// Run schedules all arrivals and drives the simulation until every job has
// either completed or been rejected. Runs with faults installed are bounded
// by a horizon well past the last deadline, because an unrecovered hang
// strands its job forever and the event queue would never drain.
func (s *System) Run() {
	s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the event loop polls the
// context and stops mid-simulation when it is cancelled, returning the
// context's error. A run that completes naturally returns nil even if the
// context was cancelled at the finish line; a cancelled run leaves the
// system in a consistent but incomplete state and its metrics must be
// discarded.
func (s *System) RunContext(ctx context.Context) error {
	s.runStarted = true
	s.arrivalsLeft = len(s.jobs)
	for _, jr := range s.jobs {
		jr := jr
		s.eng.Schedule(jr.Job.Arrival, func() { s.arrive(jr) })
	}
	s.scheduleRetirements()
	s.armTimer()
	if ctx.Done() != nil {
		s.eng.SetInterrupt(func() bool { return ctx.Err() != nil })
		defer s.eng.SetInterrupt(nil)
	}
	if s.faultsInstalled {
		if horizon := s.faultRunHorizon(); horizon > 0 {
			s.eng.RunUntil(horizon)
			if s.eng.Interrupted() {
				return ctx.Err()
			}
			return nil
		}
	}
	s.eng.Run()
	if s.eng.Interrupted() {
		return ctx.Err()
	}
	return nil
}

// arrive runs the host-side offload decision for a newly arrived job.
func (s *System) arrive(jr *JobRun) {
	s.arrivalsLeft--
	s.probeJob(obs.JobArrive, jr)
	if !s.pol.Admit(jr) {
		jr.state = JobRejected
		s.rejected++
		s.probeJob(obs.JobReject, jr)
		s.retire()
		return
	}
	jr.SubmitTime = s.eng.Now()
	if len(s.freeQueues) == 0 {
		s.hostQ = append(s.hostQ, jr)
		return
	}
	s.bindQueue(jr)
}

// bindQueue assigns a compute queue and starts stream inspection.
func (s *System) bindQueue(jr *JobRun) {
	n := len(s.freeQueues)
	qid := s.freeQueues[n-1]
	s.freeQueues = s.freeQueues[:n-1]
	jr.QueueID = qid
	for _, inst := range jr.Instances {
		inst.QueueID = qid
	}
	jr.state = JobInit
	s.active = append(s.active, jr)
	s.invalidateOrder()
	s.armTimer()

	// Stream inspection: claim the earliest parser slot.
	slot := 0
	for i, t := range s.parserFreeAt {
		if t < s.parserFreeAt[slot] {
			slot = i
		}
	}
	start := s.eng.Now()
	if s.parserFreeAt[slot] > start {
		start = s.parserFreeAt[slot]
	}
	done := start + s.cfg.ParseLatency
	s.parserFreeAt[slot] = done

	ov := s.pol.Overheads()
	s.eng.Schedule(done+ov.PerJobAdmission, func() {
		s.afterLaunch(func() {
			if jr.state != JobInit { // defensive: policy may have mutated state
				return
			}
			// The policy's AdvanceGate also guards the first kernel
			// (BatchMaker holds new jobs until a batch forms around them).
			if gate, ok := s.pol.(AdvanceGate); ok && !gate.CanAdvance(jr) {
				s.blocked = append(s.blocked, jr)
				return
			}
			s.makeFirstReady(jr)
		})
	})
}

// afterLaunch runs fn once the host launch pipe has issued one kernel
// launch for this policy. CP-side policies (zero PerKernelLaunch) proceed
// immediately; CPU-side policies wait for the shared pipe.
func (s *System) afterLaunch(fn func()) {
	d := s.pol.Overheads().PerKernelLaunch
	if d <= 0 {
		fn()
		return
	}
	start := s.eng.Now()
	if s.hostFreeAt > start {
		start = s.hostFreeAt
	}
	s.hostFreeAt = start + d
	s.eng.Schedule(s.hostFreeAt, fn)
}

// makeFirstReady transitions an inspected job to ready and dispatches.
func (s *System) makeFirstReady(jr *JobRun) {
	jr.state = JobReady
	jr.ReadyTime = s.eng.Now()
	s.markReady(jr.Current())
	s.probeJob(obs.JobReady, jr)
	s.Dispatch()
}

// markReady makes a waiting kernel — the current one of an active job —
// ready, and counts it if that made it dispatchable (a paused job's kernel
// becomes ready but is counted only by the recount after its Resume).
func (s *System) markReady(inst *gpu.KernelInstance) {
	if inst.State() != gpu.KernelWaiting {
		return
	}
	inst.MarkReady(s.eng.Now())
	if inst.Dispatchable() {
		s.addReady(s.dev.FootprintClass(inst), 1)
	}
}

// addReady adjusts ready[c], growing the slice to classes the device
// registered since the last call.
func (s *System) addReady(c, delta int) {
	for len(s.ready) <= c {
		s.ready = append(s.ready, 0)
	}
	s.ready[c] += delta
}

// placeable reports whether some footprint class has a ready kernel and is
// not blocked on the device. Only meaningful while the counts are not stale.
func (s *System) placeable() bool {
	for c, n := range s.ready {
		if n > 0 && !s.dev.ClassBlocked(c) {
			return true
		}
	}
	return false
}

// onWGComplete refills the device after every workgroup completion.
func (s *System) onWGComplete(inst *gpu.KernelInstance) {
	// A nil job is a draining WG of a dropped job the online window already
	// retired; the slot it frees still gets refilled.
	if jr := s.Job(inst.JobID); jr != nil {
		jr.wgsCompleted++
		if jr.state == JobReady && inst.CompletedWGs() > 0 {
			jr.state = JobRunning
		}
	}
	s.Dispatch()
}

// Cancel preempts an offloaded job and drops its remaining work: in-flight
// WGs drain (their context save is the caller's concern), queued kernels
// never execute, and the compute queue is reclaimed immediately. Terminal
// and rejected jobs are unaffected. Policies use this to stop spending the
// device on jobs that have already missed their deadline.
func (s *System) Cancel(jr *JobRun) {
	switch jr.state {
	case JobDone, JobRejected, JobCancelled, JobPending:
		return
	}
	if cur := jr.Current(); cur != nil {
		s.disarmWatchdog(cur)
	}
	jr.state = JobCancelled
	jr.FinishTime = s.eng.Now()
	s.probeJob(obs.JobCancel, jr)
	s.retire()
	s.drop(jr)
	s.releaseQueue(jr)
	s.Dispatch()
}

// drop takes an unfinished job off the device: none of its kernels
// dispatches again (in-flight WGs drain), and it leaves the active and
// gate-blocked sets. Pause marks the ready counts stale, which covers both.
func (s *System) drop(jr *JobRun) {
	jr.Pause()
	for i, a := range s.active {
		if a == jr {
			s.active = append(s.active[:i], s.active[i+1:]...)
			s.invalidateOrder()
			break
		}
	}
	for i, b := range s.blocked {
		if b == jr {
			s.blocked = append(s.blocked[:i], s.blocked[i+1:]...)
			break
		}
	}
}

// onKernelDone advances the job's kernel chain.
func (s *System) onKernelDone(inst *gpu.KernelInstance) {
	jr := s.Job(inst.JobID)
	if jr == nil || jr.state == JobCancelled {
		return // draining WGs of a dropped job (nil: already retired online)
	}
	if jr.Current() != inst {
		panic(fmt.Sprintf("cp: out-of-order kernel completion for %v", jr))
	}
	if s.probe != nil {
		s.probe.KernelDone(obs.KernelDone{
			At: s.eng.Now(), Job: jr.Job.ID, Queue: jr.QueueID,
			Seq: inst.Seq, Kernel: inst.Desc.Name, Start: inst.StartedAt,
		})
	}
	s.disarmWatchdog(inst)
	jr.cur++
	if jr.Current() == nil {
		s.finish(jr)
		return
	}
	s.tryAdvance(jr)
	s.recheckBlocked()
}

// tryAdvance makes the job's next kernel ready, subject to the policy's
// AdvanceGate and per-kernel launch overhead.
func (s *System) tryAdvance(jr *JobRun) {
	if gate, ok := s.pol.(AdvanceGate); ok && !gate.CanAdvance(jr) {
		s.blocked = append(s.blocked, jr)
		return
	}
	next := jr.Current()
	s.afterLaunch(func() {
		s.markReady(next)
		s.Dispatch()
	})
}

// recheckBlocked re-tests gate-blocked jobs (batch groups may have caught
// up).
func (s *System) recheckBlocked() {
	if len(s.blocked) == 0 {
		return
	}
	gate, _ := s.pol.(AdvanceGate)
	still := s.blocked[:0]
	for _, jr := range s.blocked {
		if jr.Done() || jr.Current() == nil {
			continue
		}
		if gate != nil && !gate.CanAdvance(jr) {
			still = append(still, jr)
			continue
		}
		if jr.state == JobInit {
			// First kernel was gated at inspection time (its launch was
			// already issued before the gate blocked it).
			s.makeFirstReady(jr)
			continue
		}
		next := jr.Current()
		s.afterLaunch(func() {
			s.markReady(next)
			s.Dispatch()
		})
	}
	s.blocked = still
	s.Dispatch()
}

// finish retires a completed job, frees its queue, and pulls the next
// host-queued job in.
func (s *System) finish(jr *JobRun) {
	jr.state = JobDone
	jr.FinishTime = s.eng.Now()
	s.completed++
	s.probeJob(obs.JobFinish, jr)
	s.retire()
	for i, a := range s.active {
		if a == jr {
			s.active = append(s.active[:i], s.active[i+1:]...)
			s.invalidateOrder()
			break
		}
	}
	s.releaseQueue(jr)
	s.Dispatch()
}

// releaseQueue returns the job's compute queue to the free pool and binds
// the longest-waiting host-queued job, if any. Safe to call once per job
// (QueueID is cleared).
func (s *System) releaseQueue(jr *JobRun) {
	if jr.QueueID < 0 {
		return
	}
	s.freeQueues = append(s.freeQueues, jr.QueueID)
	jr.QueueID = -1
	if len(s.hostQ) > 0 {
		next := s.hostQ[0]
		s.hostQ = s.hostQ[1:]
		s.bindQueue(next)
	}
}

// Dispatch runs one CP scheduling round: offer active jobs' current kernels
// to the device in policy order, filling WG slots greedily ("LAX issues all
// WGs from the highest priority job[, then] moves on to the next highest
// priority ready job ... until all WG slots are filled", §4.4).
//
// The round does only the part of that walk that can place a WG. While the
// ready counts are current it returns at once — before asking the policy for
// an order — when no footprint class has both a ready kernel and room on the
// device, passes over a kernel of a blocked class without offering it, and
// stops as soon as a placement leaves nothing placeable; the jobs it does
// not reach are exactly those the device would refuse. A round that finds
// the counts stale walks every job and recounts.
func (s *System) Dispatch() {
	if s.dev.Stalled() {
		if !s.stallKickArmed {
			s.stallKickArmed = true
			s.eng.Schedule(s.dev.StallEndsAt(), func() {
				s.stallKickArmed = false
				s.Dispatch()
			})
		}
		return
	}
	recount := s.readyStale
	if recount {
		// Cleared before the walk, not after: policy code runs inside it
		// (Order, Served), and staleness raised there must outlive the round.
		s.readyStale = false
		clear(s.ready)
	} else if !s.placeable() {
		return
	}
	for _, jr := range s.dispatchOrder() {
		inst := jr.Current()
		if inst == nil || !inst.Dispatchable() {
			continue
		}
		c := s.dev.FootprintClass(inst)
		if recount {
			s.addReady(c, 1)
		}
		if s.dev.ClassBlocked(c) {
			continue
		}
		s.offers++
		wasRunning := inst.State() == gpu.KernelRunning
		if s.dev.TryDispatch(inst, -1) > 0 {
			s.placements++
			jr.state = JobRunning
			if jr.FirstDispatch < 0 {
				jr.FirstDispatch = s.eng.Now()
			}
			if !wasRunning {
				s.probeKernelStart(jr, inst)
				s.armWatchdog(jr, inst)
			}
			if s.observer != nil {
				s.observer.Served(jr)
			}
		}
		// The offer either placed every remaining WG or was refused and
		// blocked the class: one of the two inputs of placeable just moved.
		if inst.RemainingWGs() == 0 {
			s.ready[c]--
		}
		if !recount && !s.placeable() {
			return
		}
	}
}

// DispatchStats returns how many kernels dispatch rounds have offered to the
// device so far, and how many of those offers placed at least one WG. Their
// ratio is the cost of a placement in offers: 1 when every offer lands.
func (s *System) DispatchStats() (offers, placements int64) {
	return s.offers, s.placements
}

// dispatchOrder returns active jobs in dispatch order: the policy's Orderer
// if implemented, else ascending Priority with FIFO (SubmitTime, ID)
// tie-break. With PriorityLevels set, priorities are first quantized into
// that many hardware levels, so fine-grained laxity distinctions collapse
// within a level and FIFO decides — the limitation of contemporary
// priority APIs (§2.2).
func (s *System) dispatchOrder() []*JobRun {
	if s.orderer != nil {
		return s.orderer.Order(s.active)
	}
	return s.priorityOrder()
}

// priorityOrder is dispatchOrder without an Orderer: the memoized sort.
func (s *System) priorityOrder() []*JobRun {
	if s.orderValid {
		for i, jr := range s.orderCache {
			if jr.Priority != s.orderPrios[i] {
				s.orderValid = false
				break
			}
		}
		if s.orderValid {
			return s.orderCache
		}
	}
	prio := func(j *JobRun) int64 { return j.Priority }
	if s.cfg.PriorityLevels > 0 {
		prio = s.quantizedPriority()
	}
	order := append(s.orderCache[:0], s.active...)
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		pa, pb := prio(ja), prio(jb)
		if pa != pb {
			return pa < pb
		}
		if ja.SubmitTime != jb.SubmitTime {
			return ja.SubmitTime < jb.SubmitTime
		}
		return ja.Job.ID < jb.Job.ID
	})
	s.orderCache = order
	s.orderPrios = s.orderPrios[:0]
	for _, jr := range order {
		s.orderPrios = append(s.orderPrios, jr.Priority)
	}
	s.orderValid = true
	return order
}

// invalidateOrder drops the memoized dispatch order. Called on every
// active-set mutation; priority-only changes are caught by the stamp check
// in dispatchOrder instead.
func (s *System) invalidateOrder() { s.orderValid = false }

// quantizedPriority maps the active jobs' raw priorities onto the
// configured number of hardware levels by rank: the most urgent 1/N of the
// span per level. Expired (INF) jobs always land in the lowest level.
func (s *System) quantizedPriority() func(*JobRun) int64 {
	levels := int64(s.cfg.PriorityLevels)
	var lo, hi int64 = 1 << 62, -(1 << 62)
	for _, j := range s.active {
		p := j.Priority
		if p >= int64(sim.Forever)/2 {
			continue // expired jobs pin to the bottom level
		}
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	span := hi - lo
	return func(j *JobRun) int64 {
		if j.Priority >= int64(sim.Forever)/2 {
			return levels // below every real level
		}
		if span <= 0 {
			return 0
		}
		q := (j.Priority - lo) * (levels - 1) / span
		return q
	}
}

// armTimer (re)schedules the policy's reprioritization tick. The timer
// self-disarms when no work remains so the event queue can drain.
//
// In sim mode the timer is armed at t=0 and every re-arm happens inside a
// tick, so ticks always land on the grid iv, 2·iv, 3·iv, …. Online mode must
// tick on the same grid — the profiling-table windows and priority updates
// of the two modes line up only then — but the timer there disarms during
// idle stretches (no trace end is known) and re-arms from SubmitNow at
// arbitrary times, so the online re-arm rounds up to the next grid point
// instead of adding a full interval. Ticks sim mode fires during stretches
// online mode slept through touch no scheduler state: with no completions in
// a window the profiling table keeps its last rates (delta == 0) and there
// are no active jobs to re-rank, so skipping them preserves equivalence.
func (s *System) armTimer() {
	iv := s.pol.Interval()
	if iv <= 0 || s.timerArmed {
		return
	}
	if len(s.active) == 0 && len(s.hostQ) == 0 && s.arrivalsLeft == 0 {
		return
	}
	s.timerArmed = true
	at := s.eng.Now() + iv
	if s.online {
		at = (s.eng.Now()/iv + 1) * iv // next strict grid point
	}
	s.eng.Schedule(at, s.tick)
}

// tick is the reprioritization timer body: run the policy's Algorithm 2 pass
// (a host round trip later for CPU-side policies), re-test gate-blocked
// jobs, dispatch, and re-arm.
func (s *System) tick() {
	s.timerArmed = false
	s.reprioritize()
	s.armTimer()
}

// reprioritize runs the policy's pass now, or a host round trip later for
// CPU-side policies (the decision lands that much after the tick).
func (s *System) reprioritize() {
	if lat := s.pol.Overheads().PriorityUpdateLatency; lat > 0 {
		s.eng.After(lat, s.applyReprioritize)
		return
	}
	s.applyReprioritize()
}

// applyReprioritize is the pass and what follows from it. The policy may
// have paused and resumed jobs, so the ready counts are stale after it.
func (s *System) applyReprioritize() {
	s.pol.Reprioritize()
	s.readyStale = true
	s.recheckBlocked()
	s.Dispatch()
}

// Completed returns the number of jobs that finished (regardless of
// deadline).
func (s *System) Completed() int { return s.completed }

// RejectedCount returns the number of jobs refused by admission control.
func (s *System) RejectedCount() int { return s.rejected }

// HostQueueLen returns the number of admitted jobs waiting for a queue.
func (s *System) HostQueueLen() int { return len(s.hostQ) }

// probeJob emits one job lifecycle event. The event struct is built inside
// the nil guard, so runs without a probe allocate nothing here.
func (s *System) probeJob(kind obs.JobEventKind, jr *JobRun) {
	if s.probe == nil {
		return
	}
	e := obs.JobEvent{
		At: s.eng.Now(), Kind: kind,
		Job: jr.Job.ID, Queue: jr.QueueID, Benchmark: jr.Job.Benchmark,
	}
	switch kind {
	case obs.JobArrive:
		e.Deadline = jr.Job.AbsoluteDeadline()
	case obs.JobFinish:
		e.Met = jr.MetDeadline()
	}
	s.probe.Job(e)
}

// probeKernelStart emits a kernel's first WG dispatch, attaching the
// policy's execution-time prediction when it implements KernelEstimator —
// the pairing half of estimate-accuracy tracking.
func (s *System) probeKernelStart(jr *JobRun, inst *gpu.KernelInstance) {
	if s.probe == nil {
		return
	}
	e := obs.KernelStart{
		At: s.eng.Now(), Job: jr.Job.ID, Queue: jr.QueueID,
		Seq: inst.Seq, Kernel: inst.Desc.Name,
	}
	if est, ok := s.pol.(KernelEstimator); ok {
		if pred, ok := est.EstimateKernelTime(jr); ok {
			e.Predicted, e.HasPrediction = pred, true
		}
	}
	s.probe.KernelStart(e)
}
