package cp

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"laxgpu/internal/core"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// ParseStreams and ParseLatency model stream inspection bandwidth: the CP
// "can parse four streams in parallel every 2 µs" (§5).
const (
	ParseStreams = 4
	ParseLatency = 2 * sim.Microsecond
)

// SystemConfig holds the offload-path parameters from §5 of the paper.
type SystemConfig struct {
	GPU gpu.Config

	// NumQueues is the number of hardware compute queues (Table 2: 128).
	// If more jobs are admitted than queues exist, the excess waits on the
	// host until a queue frees.
	NumQueues int

	// PriorityLevels, when positive, quantizes job priorities into that
	// many hardware levels at dispatch time — contemporary GPUs expose
	// only "a limited number of priorities (e.g., high and low)" (§2.2),
	// whereas the paper's proposal assumes the CP can order queues by full
	// laxity values. 0 means unlimited (the paper's design).
	PriorityLevels int

	// Recover arms the fault watchdog / retry / CPU-fallback machinery
	// (recovery.go). Off, faults are fatal to the jobs they hit.
	Recover bool
}

// DefaultSystemConfig returns the paper's simulated system.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		GPU:       gpu.DefaultConfig(),
		NumQueues: 128,
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

	// slab holds a batch trace's JobRuns, jobs[i] = &slab[i]; a recycled
	// system keeps it for the next trace that fits (see NewSystem).
	slab []JobRun

	active  []*JobRun // admitted, unfinished, holding a queue
	hostQ   []*JobRun // admitted, waiting for a free queue
	blocked []*JobRun // waiting on the policy's AdvanceGate

	// orderer and observer are the policy's Orderer and ServeObserver
	// interfaces, type-asserted once at construction so the per-dispatch hot
	// path does no interface probing.
	orderer  Orderer
	observer ServeObserver

	// orderCache is the dispatch order of a policy without an Orderer: the
	// active jobs by ascending (priority, quantized under PriorityLevels;
	// SubmitTime; Job.ID). The key is a total order, so the sorted sequence
	// is unique. The cache is a permutation of active at all times and is
	// repaired, never re-sorted: a job that binds a queue is appended, and a
	// job that leaves is deleted in place, which keeps the rest sorted.
	// orderPrios[i] is the Priority orderCache[i] was placed under.
	//
	// Priorities move only where policy code runs: cp.Policy has Admit and
	// Reprioritize write JobRun.Priority and nothing else. So the stamps are
	// compared only after those hooks — prioMoved is raised after Admit and
	// after Reprioritize, and inPass keeps the compare on for every dispatch
	// during Reprioritize (LAX-PREMA cancels, and so dispatches, midway
	// through its pass). A stamp mismatch, a join, or a leave under
	// PriorityLevels (the quantization spans the active set, so a leave can
	// move other jobs' levels) sets orderDirty, and the next priorityOrder
	// runs one insertion pass: O(n + inversions), and, the key being a total
	// order, exactly the stable sort's result.
	orderCache []*JobRun
	orderPrios []int64
	prioMoved  bool
	inPass     bool
	orderDirty bool

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
	parserFreeAt [ParseStreams]sim.Time

	// hostFreeAt models the host-side launch pipe for CPU-side policies: a
	// single driver thread issues kernel launches one PerKernelLaunch
	// round trip at a time, shared across every job. This is what caps
	// CPU-side schedulers on many-kernel workloads — the aggregate launch
	// demand can exceed the pipe's bandwidth.
	hostFreeAt sim.Time

	// submitted counts the jobs that have arrived (see submit).
	submitted      int
	timerArmed     bool
	stallKickArmed bool

	// runStarted latches once RunContext or StartOnline begins, so probe
	// attachment after the fact is rejected (see SetProbe).
	runStarted bool

	// probe observes scheduler decisions and kernel lifecycle events. It
	// never influences the simulation: every call site is a pure read of
	// state the run already computed, and a nil probe costs one pointer
	// compare (see the harness golden-equivalence test).
	probe obs.Probe

	// online is the state of a system started by StartOnline, nil in batch
	// mode: jobs come from SubmitNow rather than a trace, and terminal ones
	// retire (see retire).
	online *onlineState

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

// shells holds the systems Release handed back. NewSystem builds every
// system in one, so a run starts with the event arena, WG batch pool,
// JobRun slab and slices an earlier run grew; an empty pool hands out a
// shell with a new engine and a zero device.
var shells = sync.Pool{New: func() any { return &System{eng: sim.NewEngine(), dev: new(gpu.Device)} }}

// NewSystem builds a system for the job set under the policy. The job set
// is not mutated; a JobRun is created per job, all of them in one slab.
//
// The system is built in a shell from the pool Release fills, and built the
// same way whether the shell is new or recycled: the engine and device are
// Reset, every field is rewritten, and of the last run only storage
// survives — the slab when the trace fits in it, and the backing arrays of
// the job, queue and order slices, cleared so they keep nothing of that run
// reachable.
func NewSystem(cfg SystemConfig, set *workload.JobSet, pol Policy) *System {
	if cfg.NumQueues <= 0 {
		panic(fmt.Sprintf("cp: invalid system config %+v", cfg))
	}
	s := shells.Get().(*System)
	s.eng.Reset()
	s.dev.Reset(cfg.GPU, s.eng)
	n := len(set.Jobs)
	slab := s.slab
	if cap(slab) < n {
		// Grown as append grows, not to n: a shell that meets larger and
		// larger traces is not outgrown by each of them.
		slab = slices.Grow(slab[:0], n)
	}
	clear(slab[n:cap(slab)])
	*s = System{
		cfg:        cfg,
		eng:        s.eng,
		dev:        s.dev,
		pol:        pol,
		readyStale: true,
		slab:       slab[:n],
		jobs:       slices.Grow(emptied(s.jobs), n),
		active:     emptied(s.active),
		hostQ:      emptied(s.hostQ),
		blocked:    emptied(s.blocked),
		orderCache: emptied(s.orderCache),
		orderPrios: s.orderPrios[:0],
		ready:      s.ready[:0],
		freeQueues: slices.Grow(s.freeQueues[:0], cfg.NumQueues),
	}
	s.dev.OnWGComplete(s.onWGComplete)
	s.dev.OnKernelDone(s.onKernelDone)
	if cfg.Recover {
		s.wdTimers = make(map[*gpu.KernelInstance]*wdEntry)
		s.wdTable = core.NewProfilingTable(1)
		s.wdKernels = make(map[string]*gpu.KernelDesc)
	}
	for i := cfg.NumQueues - 1; i >= 0; i-- {
		s.freeQueues = append(s.freeQueues, i) // pop from the back → queue 0 first
	}
	for i, job := range set.Jobs {
		if job.ID != i {
			panic(fmt.Sprintf("cp: job IDs must be dense, got %d at %d", job.ID, i))
		}
		s.jobs = append(s.jobs, s.initJobRun(&s.slab[i], job))
	}
	pol.Attach(s)
	s.orderer, _ = pol.(Orderer)
	s.observer, _ = pol.(ServeObserver)
	return s
}

// emptied returns s truncated, its backing array cleared first so a
// recycled slice keeps no pointer from its last run reachable.
func emptied[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// Release hands a finished batch run's system back for NewSystem to build a
// later system in. The caller must be the system's only holder and must
// drop every reference to it and to what it returned — JobRuns, Jobs(),
// Active(), the device, the engine, the counters — since all of it is
// rebuilt in place. Release takes only a system whose whole trace arrived
// and whose engine drained: it ignores one that never ran, an online one,
// one with faults installed (a run bounded by the fault horizon can stop
// with work queued, and a hung kernel's batch is never freed), one with the
// watchdog armed, and one whose context stopped it before its last arrival
// or before its queue drained. A system it takes hands its policy's storage
// back too, when the policy is a StateReleaser.
func (s *System) Release() {
	if !s.runStarted || s.online != nil || s.faultsInstalled || s.cfg.Recover ||
		s.submitted != len(s.jobs) || s.eng.Pending() != 0 {
		return
	}
	if r, ok := s.pol.(StateReleaser); ok {
		r.ReleaseState()
	}
	shells.Put(s)
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
// terminal jobs are retired; callers there keep the JobRun SubmitNow returns
// (valid until they Recycle it).
func (s *System) Jobs() []*JobRun { return s.jobs }

// Active returns the jobs currently admitted and unfinished, in arrival
// order. The caller must not retain or mutate the slice across events.
func (s *System) Active() []*JobRun { return s.active }

// Job returns the JobRun for a job ID, or nil for an ID online mode has
// already retired or one past the last job submitted.
func (s *System) Job(id int) *JobRun {
	if id < s.base || id >= s.base+len(s.jobs) {
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

// Run drives the trace until every job has either completed or been
// rejected. Runs with faults installed are bounded by a horizon well past the
// last deadline, because an unrecovered hang strands its job forever and the
// event queue would never drain.
func (s *System) Run() {
	s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the event loop polls the
// context and stops mid-simulation when it is cancelled, returning the
// context's error. A run that completes naturally returns nil even if the
// context was cancelled at the finish line; a cancelled run leaves the
// system in a consistent but incomplete state and its metrics must be
// discarded. It panics on a system whose run has started.
//
// A batch run is an online run fed by its trace: each job, in arrival
// order, arrives as a SubmitNow does once the engine has run every event
// before it. So the event queue holds work in flight, never the trace.
func (s *System) RunContext(ctx context.Context) error {
	s.start("RunContext")
	if ctx.Done() != nil {
		s.eng.SetInterrupt(func() bool { return ctx.Err() != nil })
		defer s.eng.SetInterrupt(nil)
	}
	for _, jr := range s.arrivalOrder() {
		if s.eng.RunBefore(jr.Job.Arrival); s.eng.Interrupted() {
			return ctx.Err()
		}
		s.submit(jr)
	}
	if horizon := s.faultRunHorizon(); s.faultsInstalled && horizon > 0 {
		s.eng.RunUntil(horizon)
	} else {
		s.eng.Run()
	}
	if s.eng.Interrupted() {
		return ctx.Err()
	}
	return nil
}

// start latches the run, so observers are fixed from here on (see SetProbe),
// and schedules the fault plan's CU retirements.
func (s *System) start(caller string) {
	if s.runStarted {
		panic("cp: " + caller + " after the run has started")
	}
	s.runStarted = true
	s.scheduleRetirements()
}

// arrivalOrder returns the trace's jobs by arrival time; ties keep ID order.
func (s *System) arrivalOrder() []*JobRun {
	byArrival := func(a, b *JobRun) int { return cmp.Compare(a.Job.Arrival, b.Job.Arrival) }
	if slices.IsSortedFunc(s.jobs, byArrival) {
		return s.jobs
	}
	order := slices.Clone(s.jobs)
	slices.SortStableFunc(order, byArrival)
	return order
}

// submit runs one arrival at the current engine time, for RunContext and
// SubmitNow alike. The reprioritization timer ticks at every grid point
// k·Interval (k ≥ 1) with work present: a disarmed timer had none, so an
// arrival exactly on a grid point ticks there, after itself (binding a
// queue re-arms the timer for the next grid point).
func (s *System) submit(jr *JobRun) {
	iv := s.pol.Interval()
	now := s.eng.Now()
	tick := iv > 0 && !s.timerArmed && now >= iv && now%iv == 0
	s.submitted++
	s.arrive(jr)
	if tick {
		s.eng.ScheduleAct(now, (*gridEvent)(s))
	}
}

// arrive runs the host-side offload decision for a newly arrived job.
func (s *System) arrive(jr *JobRun) {
	s.probeJob(obs.JobArrive, jr)
	accepted := s.pol.Admit(jr)
	s.prioMoved = true
	if !accepted {
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
	jr.head.QueueID = qid
	jr.state = JobInit
	s.active = append(s.active, jr)
	s.orderCache = append(s.orderCache, jr)
	s.orderPrios = append(s.orderPrios, jr.Priority)
	s.orderDirty = true
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
	done := start + ParseLatency
	s.parserFreeAt[slot] = done

	jr.scheduleLaunch(done+s.pol.Overheads().PerJobAdmission, (*System).inspectionDone)
}

// inspectionDone runs when a job's stream inspection (and its policy's
// per-job admission cost) is through: its first kernel launch goes out.
func (s *System) inspectionDone(jr *JobRun) { s.afterLaunch(jr, (*System).inspected) }

// inspected runs once a job's stream inspection and first kernel launch are
// through: the first kernel becomes ready unless the policy's gate holds it.
func (s *System) inspected(jr *JobRun) {
	if jr.state != JobInit { // defensive: policy may have mutated state
		return
	}
	// The policy's AdvanceGate also guards the first kernel (BatchMaker
	// holds new jobs until a batch forms around them).
	if gate, ok := s.pol.(AdvanceGate); ok && !gate.CanAdvance(jr) {
		s.blocked = append(s.blocked, jr)
		return
	}
	s.makeFirstReady(jr)
}

// afterLaunch runs fn(s, jr) once the host launch pipe has issued one kernel
// launch for this policy. CP-side policies (zero PerKernelLaunch) proceed
// immediately; CPU-side policies wait for the shared pipe.
func (s *System) afterLaunch(jr *JobRun, fn func(*System, *JobRun)) {
	d := s.pol.Overheads().PerKernelLaunch
	if d <= 0 {
		fn(s, jr)
		return
	}
	start := s.eng.Now()
	if s.hostFreeAt > start {
		start = s.hostFreeAt
	}
	s.hostFreeAt = start + d
	jr.scheduleLaunch(s.hostFreeAt, fn)
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
	s.leave(jr)
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
	if jr.Current() != inst || inst.Seq != jr.cur {
		panic(fmt.Sprintf("cp: out-of-order kernel completion for %v", jr))
	}
	if s.probe != nil {
		s.probe.KernelDone(obs.KernelDone{
			At: s.eng.Now(), Job: jr.Job.ID, Queue: jr.QueueID,
			Seq: inst.Seq, Kernel: inst.Desc.Name, Start: inst.StartedAt,
		})
	}
	// The watchdog is disarmed before the head is re-initialised: the device
	// holds nothing more of this kernel (its last WG just completed), so the
	// instance is free to become the next kernel.
	s.disarmWatchdog(inst)
	if !jr.advance() {
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
	s.afterLaunch(jr, (*System).readyHead)
}

// readyHead makes the job's head kernel ready and dispatches.
func (s *System) readyHead(jr *JobRun) {
	s.markReady(jr.Current())
	s.Dispatch()
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
		s.afterLaunch(jr, (*System).readyHead)
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
	s.leave(jr)
	s.releaseQueue(jr)
	s.Dispatch()
}

// leave takes jr out of active and out of the dispatch order, if it is in
// them. Deleting in place keeps the order sorted, except under
// PriorityLevels, where the levels span the active set.
func (s *System) leave(jr *JobRun) {
	i := slices.Index(s.active, jr)
	if i < 0 {
		return
	}
	s.active = slices.Delete(s.active, i, i+1)
	i = slices.Index(s.orderCache, jr)
	s.orderCache = slices.Delete(s.orderCache, i, i+1)
	s.orderPrios = slices.Delete(s.orderPrios, i, i+1)
	if s.cfg.PriorityLevels > 0 {
		s.orderDirty = true
	}
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

// priorityOrder is dispatchOrder without an Orderer: the repaired cache.
func (s *System) priorityOrder() []*JobRun {
	if s.prioMoved || s.inPass {
		s.prioMoved = false
		for i, jr := range s.orderCache {
			if jr.Priority != s.orderPrios[i] {
				s.orderDirty = true
				break
			}
		}
	}
	if s.orderDirty {
		s.orderDirty = false
		s.repairOrder()
	}
	return s.orderCache
}

// repairOrder restores the dispatch order with one insertion pass over the
// cache and re-stamps every entry's priority.
func (s *System) repairOrder() {
	key := func(j *JobRun) int64 { return j.Priority }
	if s.cfg.PriorityLevels > 0 {
		key = s.quantizedPriority()
	}
	order := s.orderCache
	for i := 1; i < len(order); i++ {
		jr, k := order[i], key(order[i])
		j := i
		for ; j > 0 && orderBefore(k, jr, key(order[j-1]), order[j-1]); j-- {
			order[j] = order[j-1]
		}
		order[j] = jr
	}
	for i, jr := range order {
		s.orderPrios[i] = jr.Priority
	}
}

// orderBefore is the dispatch order's key comparison: a (sort key ka) goes
// before b (key kb). Ties end on the unique job ID, so it is a total order.
func orderBefore(ka int64, a *JobRun, kb int64, b *JobRun) bool {
	if ka != kb {
		return ka < kb
	}
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.Job.ID < b.Job.ID
}

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

// armTimer arms the policy's reprioritization tick for the next grid point
// k·Interval strictly after now, while work is present: an admitted job
// holds a queue or waits for one. The timer disarms when no work remains,
// so the event queue can drain, and an arrival re-arms it. It ticks on the
// grid wherever it was armed from, so the profiling-table windows do not
// depend on when work arrived. A grid point it skips would change nothing:
// with no completions in its window the table keeps its rates, and there is
// no active job to re-rank.
func (s *System) armTimer() {
	iv := s.pol.Interval()
	if iv <= 0 || s.timerArmed || len(s.active) == 0 && len(s.hostQ) == 0 {
		return
	}
	s.timerArmed = true
	s.eng.ScheduleAct((s.eng.Now()/iv+1)*iv, (*tickEvent)(s))
}

// tickEvent, gridEvent and passEvent are the System as the engine payload of
// its timer tick, of the tick an arrival on a grid point runs, and of a
// CPU-side policy's delayed pass: Actions, so scheduling them allocates
// nothing (a method value would allocate a closure each time).
type (
	tickEvent System
	gridEvent System
	passEvent System
)

func (t *tickEvent) Act() { (*System)(t).tick() }
func (g *gridEvent) Act() { (*System)(g).reprioritize() }
func (p *passEvent) Act() { (*System)(p).applyReprioritize() }

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
		s.eng.ScheduleAct(s.eng.Now()+lat, (*passEvent)(s))
		return
	}
	s.applyReprioritize()
}

// applyReprioritize is the pass and what follows from it. The policy may
// have paused and resumed jobs, so the ready counts are stale after it, and
// it may have written priorities, so the dispatch order compares its stamps
// on every dispatch during the pass and on the next one after it.
func (s *System) applyReprioritize() {
	s.inPass = true
	s.pol.Reprioritize()
	s.inPass = false
	s.prioMoved = true
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
		e.Kernels = len(jr.Job.Kernels)
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
