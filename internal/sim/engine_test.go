package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(42, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order at %d: got %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(5, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 45 {
		t.Fatalf("clock at %v, want 45", e.Now())
	}
}

func TestEngineAfterClampsNegative(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		e.After(-50, func() {}) // must not panic or rewind the clock
	})
	e.Run()
	if e.Now() != 100 {
		t.Fatalf("clock at %v, want 100", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestCancelInsideEarlierEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(20, func() { fired = true })
	e.Schedule(10, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Fatal("event fired despite being cancelled by an earlier event")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 15, 25, 35} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	n := e.RunUntil(20)
	if n != 2 {
		t.Fatalf("fired %d events, want 2", n)
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %v, want 20", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d, want 2", e.Pending())
	}
	e.Run()
	if len(got) != 4 || e.Now() != 35 {
		t.Fatalf("after Run: events=%d now=%v", len(got), e.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("clock at %v, want 1000", e.Now())
	}
}

func TestEngineFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := Time(0); i < 7; i++ {
		e.Schedule(i, func() {})
	}
	cancel := e.Schedule(8, func() {})
	cancel.Cancel()
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

// Property: for any set of event times, the engine fires them in
// non-decreasing time order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{40 * Microsecond, "40µs"},
		{1500 * Nanosecond, "1.5µs"},
		{7 * Millisecond, "7ms"},
		{300 * Microsecond, "300µs"},
		{2 * Second, "2s"},
		{Forever, "∞"},
		{-5 * Microsecond, "-5µs"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	tm := 1500 * Microsecond
	if tm.Microseconds() != 1500 {
		t.Errorf("Microseconds() = %v", tm.Microseconds())
	}
	if tm.Milliseconds() != 1.5 {
		t.Errorf("Milliseconds() = %v", tm.Milliseconds())
	}
	if tm.Seconds() != 0.0015 {
		t.Errorf("Seconds() = %v", tm.Seconds())
	}
	if FromDuration(tm.Duration()) != tm {
		t.Error("Duration round trip failed")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Exp(Microsecond) != b.Exp(Microsecond) {
			t.Fatal("same seed diverged (Exp)")
		}
		if a.Geometric(16) != b.Geometric(16) {
			t.Fatal("same seed diverged (Geometric)")
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(1)
	const n = 200000
	mean := 125 * Microsecond
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Exp(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean))/float64(mean) > 0.02 {
		t.Fatalf("empirical mean %v, want ≈%v", Time(got), mean)
	}
}

func TestRNGExpNonNegative(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 100000; i++ {
		if d := g.Exp(10 * Nanosecond); d < 0 {
			t.Fatalf("negative inter-arrival %v", d)
		}
	}
	if g.Exp(0) != 0 || g.Exp(-5) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
}

func TestRNGGeometricMean(t *testing.T) {
	g := NewRNG(3)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Geometric(16))
	}
	got := sum / n
	if math.Abs(got-16)/16 > 0.02 {
		t.Fatalf("empirical mean %.2f, want ≈16", got)
	}
}

func TestRNGBoundedGeometric(t *testing.T) {
	g := NewRNG(4)
	for i := 0; i < 50000; i++ {
		k := g.BoundedGeometric(16, 1, 50)
		if k < 1 || k > 50 {
			t.Fatalf("out of bounds: %d", k)
		}
	}
	// Degenerate mean falls back to 1.
	if g.Geometric(0.5) != 1 {
		t.Fatal("Geometric(<=1) should return 1")
	}
}

func TestRunReentrancyPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run did not panic")
			}
		}()
		e.Run()
	})
	e.Run()
}

func TestRunUntilReentrancyPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant RunUntil did not panic")
			}
		}()
		e.RunUntil(10)
	})
	e.Run()
}

func TestRunUntilSkipsCancelled(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(5, func() { fired = true })
	ev.Cancel()
	if n := e.RunUntil(10); n != 0 {
		t.Fatalf("fired %d events, want 0", n)
	}
	if fired {
		t.Fatal("cancelled event fired in RunUntil")
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	ev := e.Schedule(1, func() {})
	ev.Cancel()
	if e.Step() {
		t.Fatal("Step with only cancelled events returned true")
	}
}

func TestRNGShuffleDeterministic(t *testing.T) {
	mk := func(seed int64) []int {
		g := NewRNG(seed)
		s := []int{0, 1, 2, 3, 4, 5, 6, 7}
		g.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	a, b := mk(9), mk(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shuffle not deterministic")
		}
	}
	if NewRNG(1).Intn(3) >= 3 {
		t.Fatal("Intn out of range")
	}
}

func TestRNGNormalStatistics(t *testing.T) {
	g := NewRNG(6)
	const n = 100000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := g.Normal(16, 7)
		sum += v
		sq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-16) > 0.2 || math.Abs(sd-7) > 0.2 {
		t.Fatalf("Normal(16,7): mean %.2f sd %.2f", mean, sd)
	}
	// BoundedNormal clamps.
	for i := 0; i < 10000; i++ {
		if k := g.BoundedNormal(16, 7, 1, 50); k < 1 || k > 50 {
			t.Fatalf("BoundedNormal out of range: %d", k)
		}
	}
}

func TestEngineInterruptStopsRunEarly(t *testing.T) {
	e := NewEngine()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		e.After(1, tick)
	}
	e.Schedule(0, tick)
	stop := false
	e.SetInterrupt(func() bool { return stop })
	e.Schedule(500, func() { stop = true })
	e.Run()
	if !e.Interrupted() {
		t.Fatal("Interrupted() = false after an interrupt stop")
	}
	// The stride bounds cancellation latency: the run must stop within one
	// stride of the event that tripped the check, far short of forever.
	if fired < 500 || fired > 500+2*interruptStride {
		t.Fatalf("fired %d events; interrupt latency exceeded the stride bound", fired)
	}
	if e.Pending() == 0 {
		t.Fatal("interrupted run drained the queue")
	}
	// Clearing the interrupt lets the next run proceed (and terminate: stop
	// scheduling at a horizon).
	e.SetInterrupt(nil)
	if e.Interrupted() {
		t.Fatal("SetInterrupt(nil) did not reset Interrupted")
	}
}

func TestEngineInterruptBeforeFirstEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(10, func() { fired++ })
	e.SetInterrupt(func() bool { return true })
	e.Run()
	if fired != 0 {
		t.Fatalf("pre-cancelled run fired %d events", fired)
	}
	if !e.Interrupted() {
		t.Fatal("pre-cancelled run not marked interrupted")
	}
	if n := e.RunUntil(100); n != 0 {
		t.Fatalf("pre-cancelled RunUntil fired %d events", n)
	}
}

func TestEngineRunUntilInterrupt(t *testing.T) {
	e := NewEngine()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		e.After(1, tick)
	}
	e.Schedule(0, tick)
	stop := false
	e.SetInterrupt(func() bool { return stop })
	e.Schedule(200, func() { stop = true })
	e.RunUntil(10000)
	if !e.Interrupted() {
		t.Fatal("RunUntil ignored the interrupt")
	}
	if e.Now() >= 10000 {
		t.Fatal("interrupted RunUntil still advanced the clock to the horizon")
	}
	if fired < 200 || fired > 200+2*interruptStride {
		t.Fatalf("fired %d events; interrupt latency exceeded the stride bound", fired)
	}
}

// nopAction is a prebuilt closure-free payload for the pooling alloc guard.
type nopAction struct{ n int }

func (a *nopAction) Act() { a.n++ }

// TestPooledEventPathAllocationFree pins the free-list guarantee behind the
// event-churn numbers in BENCH_*.json: once the pool is warm, a
// schedule→fire→recycle cycle reuses the same Event struct and the queue's
// backing storage, so steady-state churn heap-allocates nothing — for both
// payload forms (prebuilt closure and pooled Action).
func TestPooledEventPathAllocationFree(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		fn := func() {}
		act := &nopAction{}
		// Warm the free list and the queue's backing storage.
		for i := 0; i < 64; i++ {
			e.Schedule(e.Now()+Time(i+1), fn)
		}
		for e.Step() {
		}
		if n := testing.AllocsPerRun(1000, func() {
			e.Schedule(e.Now()+1, fn)
			e.Step()
		}); n != 0 {
			t.Errorf("closure schedule+fire allocates %v per event, want 0", n)
		}
		if n := testing.AllocsPerRun(1000, func() {
			e.ScheduleAct(e.Now()+1, act)
			e.Step()
		}); n != 0 {
			t.Errorf("Action schedule+fire allocates %v per event, want 0", n)
		}
	})
}
