package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

func testLibAndConfig() (*workload.Library, cp.SystemConfig) {
	cfg := cp.DefaultSystemConfig()
	return workload.NewLibrary(cfg.GPU), cfg
}

// sampleJob draws one job from the named benchmark; ID and arrival are
// stamped by Node.Submit.
func sampleJob(t testing.TB, lib *workload.Library, name string) *workload.Job {
	t.Helper()
	b, err := workload.FindBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.Sample(lib, sim.NewRNG(9), 0, 0)
}

func TestWallClock(t *testing.T) {
	c := NewWallClock(100)
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Fatalf("clock did not advance: %v then %v", a, b)
	}
	// 2ms of wall time at speed 100 is at least 200ms simulated.
	if b-a < 200*sim.Millisecond {
		t.Errorf("speed-100 clock advanced only %v over 2ms wall", b-a)
	}
	if d := c.Until(c.Now() - sim.Second); d != 0 {
		t.Errorf("Until(past) = %v, want 0", d)
	}
	// A simulated second ahead at speed 100 is ~10ms of wall time.
	d := c.Until(c.Now() + sim.Second)
	if d <= 0 || d > 11*time.Millisecond {
		t.Errorf("Until(+1s) = %v, want ~10ms", d)
	}
	if NewWallClock(0).speed != 1 {
		t.Error("non-positive speed should default to real time")
	}
}

// waitFor polls cond (an event some other goroutine is about to cause) and
// fails the test when it has not come true after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestDriverBackpressure(t *testing.T) {
	node, err := NewNode(NodeConfig{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	const q = 4
	d := NewDriver(node, NewWallClock(1), q)
	d.Start()

	// One caller holds the node; q-1 more fit in the accept queue behind it.
	held, release := make(chan struct{}), make(chan struct{})
	results := make(chan bool, q)
	go func() { results <- d.Call(func() { close(held); <-release }) }()
	<-held
	ran := 0 // plain: every increment happens with the node held
	for i := 0; i < q-1; i++ {
		go func() { results <- d.Call(func() { ran++ }) }()
	}
	waitFor(t, "the waiters to queue", func() bool { return d.callers.Load() == q })
	if d.Call(func() { t.Error("a Call past the accept queue ran") }) {
		t.Fatal("Call with the accept queue full should refuse at once")
	}
	if got := d.callers.Load(); got != q {
		t.Fatalf("refused Call left %d callers counted, want %d", got, q)
	}
	close(release)
	for i := 0; i < q; i++ {
		if !<-results {
			t.Error("a queued Call was refused")
		}
	}
	if !d.Call(func() {}) || ran != q-1 {
		t.Fatalf("%d waiters ran, want each of %d exactly once", ran, q-1)
	}

	if forced := d.Shutdown(10 * time.Millisecond); forced != 0 {
		t.Errorf("idle shutdown forced %d jobs, want 0", forced)
	}
	select {
	case <-d.Done():
	default:
		t.Error("Done not closed after Shutdown")
	}
	if d.Call(func() {}) {
		t.Error("Call after shutdown should refuse")
	}
	// Repeat shutdown is a no-op wait.
	if forced := d.Shutdown(time.Millisecond); forced != 0 {
		t.Errorf("repeat shutdown forced %d", forced)
	}
}

// TestDriverCallIsExclusive: whoever is inside Call owns the node. Run under
// -race: the counter and lastNow are plain variables.
func TestDriverCallIsExclusive(t *testing.T) {
	node, err := NewNode(NodeConfig{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	const workers, calls = 8, 200
	d := NewDriver(node, NewWallClock(1000), workers)
	d.Start()
	defer d.Shutdown(time.Second)

	lib, _ := testLibAndConfig()
	var (
		count   int
		lastNow sim.Time
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		job := sampleJob(t, lib, "LSTM") // in flight while the others call
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				ok := d.Call(func() {
					if i == 0 {
						node.Submit(job)
					}
					count++
					if now := node.Now(); now < lastNow {
						t.Errorf("node time went back: %v after %v", now, lastNow)
					} else {
						lastNow = now
					}
				})
				if !ok {
					t.Error("Call refused with a slot per worker")
				}
			}
		}()
	}
	wg.Wait()
	if !d.Call(func() {}) || count != workers*calls {
		t.Fatalf("count = %d, want %d", count, workers*calls)
	}
}

// TestCallSettlesEventsDueNow: a Call leaves nothing due behind, so a clock
// that is not moving never strands an event until the next caller. No pacer
// is started — the test goroutine is the only one that touches the node.
func TestCallSettlesEventsDueNow(t *testing.T) {
	clock := NewManualClock()
	node, err := NewNode(NodeConfig{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(node, clock, 1)
	lib, _ := testLibAndConfig()
	settled := func(what string) {
		t.Helper()
		if te, ok := node.NextEvent(); ok && te <= clock.Now() {
			t.Fatalf("%s at %v left an event due at %v pending", what, clock.Now(), te)
		}
	}
	for i := 0; i < 4; i++ {
		clock.Advance(50 * sim.Microsecond)
		d.Call(func() { node.Submit(sampleJob(t, lib, "STEM")) })
		settled("Submit")
	}
	// Step the clock exactly onto each pending event until the node drains.
	steps := 0
	for ; node.UnfinishedCount() > 0; steps++ {
		te, ok := node.NextEvent()
		if !ok || steps > 1e6 {
			t.Fatalf("node wedged with %d jobs after %d steps", node.UnfinishedCount(), steps)
		}
		clock.Set(te)
		d.Call(func() {
			if node.Now() != te {
				t.Fatalf("fn ran at %v, want %v", node.Now(), te)
			}
		})
		settled("Call")
	}
	if steps == 0 {
		t.Fatal("no job was admitted")
	}
}

// TestPacerWakesForSoonerEvent: a caller that leaves behind an event sooner
// than the one the pacer is armed for re-arms it; nobody calls again.
func TestPacerWakesForSoonerEvent(t *testing.T) {
	clock := NewWallClock(1000)
	h, err := NewHost(NodeConfig{Scheduler: "LAX"}, clock, 8, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	defer h.Shutdown(time.Second)

	far := clock.Now() + 3600*1000*sim.Second // an hour of wall time away
	h.Call(func() { h.node.System().Engine().Schedule(far, func() {}) })
	lib, _ := testLibAndConfig()
	job := sampleJob(t, lib, "STEM")
	finished := make(chan sim.Time, 1)
	h.Call(func() {
		if h.armed != far {
			t.Errorf("pacer armed for %v, want the far event at %v", h.armed, far)
		}
		if jr, _ := h.Submit(job, "", func(jr *cp.JobRun, _ obs.JobEvent) { finished <- jr.FinishTime }); jr.Rejected() {
			t.Error("single job on an idle node should be admitted")
		}
	})
	select {
	case at := <-finished:
		// The pacer ran the completion when it fell due, not when something
		// else happened to take the node: within 100 ms of wall time.
		if late := clock.Now() - at; late > 100*sim.Second {
			t.Errorf("completion at %v delivered %v late", at, late)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("completion never fired: the pacer slept through to the far event")
	}
}

// TestCallRacesShutdown: a Call either runs wholly before the drain or is
// refused — never after Shutdown returned — and the pacer is gone afterwards.
func TestCallRacesShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	node, err := NewNode(NodeConfig{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	d := NewDriver(node, NewWallClock(1000), workers)
	d.Start()
	var (
		down    atomic.Bool
		started atomic.Int32
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for d.Call(func() {
				select {
				case <-d.Done():
					t.Error("fn ran after Done closed")
				default:
				}
				if down.Load() || d.stopped {
					t.Error("fn ran after the drain")
				}
			}) {
				if first {
					first = false
					started.Add(1)
				}
			}
		}()
	}
	waitFor(t, "every worker to get the node once", func() bool { return started.Load() == workers })
	d.Shutdown(time.Second)
	down.Store(true)
	wg.Wait()
	waitFor(t, "the pacer and workers to exit", func() bool { return runtime.NumGoroutine() <= before })
}

func TestDriverPacesSubmittedJob(t *testing.T) {
	node, err := NewNode(NodeConfig{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(node, NewWallClock(1000), 8)
	d.Start()
	defer d.Shutdown(time.Second)

	lib, cfg := testLibAndConfig()
	job := sampleJob(t, lib, "STEM")
	_ = cfg
	var submitted bool
	if !d.Call(func() { submitted = !node.Submit(job).Rejected() }) {
		t.Fatal("submit command did not run")
	}
	if !submitted {
		t.Fatal("single job on an idle node should be admitted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var left int
		if !d.Call(func() { left = node.UnfinishedCount() }) {
			t.Fatal("driver stopped while polling")
		}
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish under real-time pacing")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkDriverCall is the cost of reaching the node: an empty Call with
// the pacer parked on a manual clock, and on a (very slow) wall clock with a
// job in flight, where the pacer is armed and callers re-arm it.
func BenchmarkDriverCall(b *testing.B) {
	lib, _ := testLibAndConfig()
	for _, bc := range []struct {
		name  string
		clock Clock
		busy  bool
	}{
		{"manual-idle", NewManualClock(), false},
		{"wall-busy", NewWallClock(1e-4), true}, // one job outlasts the run
	} {
		b.Run(bc.name, func(b *testing.B) {
			node, err := NewNode(NodeConfig{Scheduler: "LAX"})
			if err != nil {
				b.Fatal(err)
			}
			d := NewDriver(node, bc.clock, 0)
			d.Start()
			defer d.Shutdown(0)
			if bc.busy {
				d.Call(func() { node.Submit(sampleJob(b, lib, "LSTM")) })
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !d.Call(func() {}) {
					b.Fatal("Call refused")
				}
			}
		})
	}
}
