package serve

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// caller is what the seeded replay drives: the Driver, the reference loop it
// replaced, or a deliberately broken variant.
type caller interface{ Call(fn func()) bool }

// refDriver is the driver this package had before the lock: one goroutine
// owns the node and everyone else sends it closures. Kept here, test-only, as
// the same-answers reference. Its loop ran the events due at a command's own
// instant after telling the caller the command was done; Call additionally
// waits for the loop to park, which is the state the old design converged to.
type refDriver struct {
	node   *Node
	clock  Clock
	cmds   chan func()
	parked chan struct{} // one token each time the loop is about to sleep
	stop   chan struct{}
}

func startRefDriver(node *Node, clock Clock) *refDriver {
	d := &refDriver{node: node, clock: clock, cmds: make(chan func()), parked: make(chan struct{}, 1), stop: make(chan struct{})}
	go d.loop()
	<-d.parked
	return d
}

func (d *refDriver) Call(fn func()) bool {
	ran := make(chan struct{})
	d.cmds <- func() { fn(); close(ran) }
	<-ran
	<-d.parked
	return true
}

func (d *refDriver) loop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		d.node.AdvanceTo(d.clock.Now())
		var wake <-chan time.Time
		if te, ok := d.node.NextEvent(); ok {
			dur := d.clock.Until(te)
			if dur <= 0 {
				d.node.CatchUp(d.clock.Now())
				continue
			}
			timer.Reset(dur) // a manual clock: the hour never elapses
			wake = timer.C
		}
		d.parked <- struct{}{}
		select {
		case fn := <-d.cmds:
			d.node.AdvanceTo(d.clock.Now())
			fn()
		case <-wake:
		case <-d.stop:
			return
		}
	}
}

// brokenDriver is the lock with one of the two ordering rules dropped.
type brokenDriver struct {
	mu        sync.Mutex
	node      *Node
	clock     Clock
	inclusive bool // run the events at now before fn, not after
	noSettle  bool // leave the events at now for the next caller
}

func (d *brokenDriver) Call(fn func()) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	if d.inclusive {
		d.node.CatchUp(now)
	} else {
		d.node.AdvanceTo(now)
	}
	fn()
	if !d.noSettle {
		d.node.CatchUp(now)
	}
	return true
}

// terminalLog is the replay's probe: one log line per job that finishes or
// is cancelled, written by whoever holds the node.
type terminalLog struct{ lines *[]string }

func (p terminalLog) Job(e obs.JobEvent) {
	if e.Kind == obs.JobFinish || e.Kind == obs.JobCancel {
		*p.lines = append(*p.lines, fmt.Sprintf("  %v job %d %v met=%v", e.At, e.Job, e.Kind, e.Met))
	}
}
func (terminalLog) Admission(obs.AdmissionDecision) {}
func (terminalLog) Epoch(obs.EpochSnapshot)         {}
func (terminalLog) Sample(obs.JobSample)            {}
func (terminalLog) TableRefresh(obs.TableRefresh)   {}
func (terminalLog) KernelStart(obs.KernelStart)     {}
func (terminalLog) KernelDone(obs.KernelDone)       {}

// replayThreeTenant pushes the built-in three-tenant scenario through a node
// behind the driver mk builds, on a manual clock, from this one goroutine:
// every job at its arrival instant, a probe each simulated millisecond, a
// few probes stepped exactly onto pending events (where "before now" and "at
// now" differ), and a CU retirement mid-run. The log interleaves what each
// command saw, every terminal event, and a "returned" mark per Call, so it
// pins both what ran and on which side of the caller's return.
func replayThreeTenant(t *testing.T, mk func(*Node, Clock) (caller, func())) []string {
	t.Helper()
	spec, err := scenario.Builtin("three-tenant")
	if err != nil {
		t.Fatal(err)
	}
	lib, _ := testLibAndConfig()
	set, err := spec.Generate(lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	node, err := NewNode(NodeConfig{Scheduler: "LAX", Probe: terminalLog{&log}})
	if err != nil {
		t.Fatal(err)
	}
	clock := NewManualClock()
	d, stop := mk(node, clock)
	defer stop()

	var next sim.Time
	var pending bool
	call := func(at sim.Time, fn func()) {
		clock.Set(at)
		ok := d.Call(func() {
			fn()
			next, pending = node.NextEvent()
		})
		if !ok {
			t.Fatalf("Call at %v refused", at)
		}
		log = append(log, "returned")
	}
	probe := func(at sim.Time) {
		call(at, func() {
			ids := []int{}
			for _, jr := range node.Unfinished() {
				ids = append(ids, jr.Job.ID)
			}
			log = append(log, fmt.Sprintf("%v probe submitted=%d unfinished=%v count=%d drain=%v",
				node.Now(), node.Submitted(), ids, node.UnfinishedCount(), node.EstimateDrain()))
		})
	}
	submit := func(j *workload.Job) {
		call(j.Arrival, func() {
			jr := node.Submit(j)
			log = append(log, fmt.Sprintf("%v submit job %d rejected=%v drain=%v",
				node.Now(), j.ID, jr.Rejected(), node.EstimateDrain()))
		})
	}

	jobs := slices.Clone(set.Jobs)
	for tick := sim.Time(0); len(jobs) > 0 || node.UnfinishedCount() > 0; tick += sim.Millisecond {
		if tick > 10*sim.Second {
			t.Fatalf("replay wedged with %d jobs unfinished", node.UnfinishedCount())
		}
		for len(jobs) > 0 && jobs[0].Arrival <= tick {
			c := *jobs[0] // Submit stamps the job; every replay gets its own
			submit(&c)
			jobs = jobs[1:]
		}
		probe(tick)
		if tick == 20*sim.Millisecond {
			call(tick, func() {
				log = append(log, fmt.Sprintf("retired %d CUs", node.System().Device().RetireCUs(3)))
			})
		}
		horizon := tick + sim.Millisecond
		if len(jobs) > 0 && jobs[0].Arrival < horizon {
			horizon = jobs[0].Arrival
		}
		for i := 0; i < 4 && pending && next < horizon; i++ {
			probe(next)
		}
	}
	return log
}

// TestDriverMatchesReferenceLoop is the same-answers pin for the driver
// redesign: one submitter on a manual clock sees the identical sequence of
// verdicts, terminal events and drain estimates through the lock as through
// the goroutine loop it replaced — and the replay tells the two ordering
// rules apart, so it would notice either being dropped.
func TestDriverMatchesReferenceLoop(t *testing.T) {
	want := replayThreeTenant(t, func(n *Node, c Clock) (caller, func()) {
		d := startRefDriver(n, c)
		return d, func() { close(d.stop) }
	})
	terminals := 0
	for _, l := range want {
		if l[0] == ' ' {
			terminals++
		}
	}
	if terminals < 100 {
		t.Fatalf("reference replay finished only %d jobs", terminals)
	}

	got := replayThreeTenant(t, func(n *Node, c Clock) (caller, func()) {
		d := NewDriver(n, c, 0)
		d.Start()
		return d, func() { d.Shutdown(time.Second) }
	})
	if !slices.Equal(got, want) {
		t.Errorf("Driver diverged from the reference loop at %s", firstDiff(got, want))
	}

	for name, d := range map[string]*brokenDriver{
		"events at now run before fn": {inclusive: true},
		"events at now left pending":  {noSettle: true},
	} {
		got := replayThreeTenant(t, func(n *Node, c Clock) (caller, func()) {
			d.node, d.clock = n, c
			return d, func() {}
		})
		if slices.Equal(got, want) {
			t.Errorf("the replay cannot tell a driver with %s from the reference", name)
		}
	}
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("length: got %d lines, want %d", len(got), len(want))
}
