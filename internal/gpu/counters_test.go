package gpu

import (
	"testing"

	"laxgpu/internal/sim"
)

// driveKernel runs one kernel instance to completion with CP-style refill.
func driveKernel(eng *sim.Engine, d *Device, inst *KernelInstance) {
	inst.MarkReady(eng.Now())
	d.OnWGComplete(func(*KernelInstance) { d.TryDispatch(inst, -1) })
	d.TryDispatch(inst, -1)
	eng.Run()
}

func TestBusyTimeTracksInFlightWindow(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	k := testKernel("k", 4, 64, 10*sim.Microsecond, 0)
	inst := NewKernelInstance(k, 0, 0, 0)
	driveKernel(eng, d, inst)
	// All 4 WGs run concurrently for exactly 10µs.
	if got := d.Counters().perKernel["k"].BusyTime(eng.Now()); got != 10*sim.Microsecond {
		t.Fatalf("busy time %v, want 10µs", got)
	}
	// Idle time after completion must not accrue.
	eng.Schedule(eng.Now()+100*sim.Microsecond, func() {})
	eng.Run()
	if got := d.Counters().perKernel["k"].BusyTime(eng.Now()); got != 10*sim.Microsecond {
		t.Fatalf("busy time grew while idle: %v", got)
	}
}

func TestBusyTimeSpansDisjointEpisodes(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	k := testKernel("k", 1, 64, 10*sim.Microsecond, 0)
	a := NewKernelInstance(k, 0, 0, 0)
	b := NewKernelInstance(k, 1, 1, 0)
	a.MarkReady(0)
	d.TryDispatch(a, -1) // busy 0-10µs
	eng.Schedule(50*sim.Microsecond, func() {
		b.MarkReady(eng.Now())
		d.TryDispatch(b, -1) // busy 50-60µs
	})
	eng.Run()
	if got := d.Counters().perKernel["k"].BusyTime(eng.Now()); got != 20*sim.Microsecond {
		t.Fatalf("busy time %v, want 20µs over two episodes", got)
	}
}

func TestBusyTimeIncludesOpenEpisode(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	k := testKernel("k", 1, 64, 100*sim.Microsecond, 0)
	inst := NewKernelInstance(k, 0, 0, 0)
	inst.MarkReady(0)
	d.TryDispatch(inst, -1)
	probed := false
	eng.Schedule(30*sim.Microsecond, func() {
		if got := d.Counters().perKernel["k"].BusyTime(eng.Now()); got != 30*sim.Microsecond {
			t.Errorf("mid-flight busy time %v, want 30µs", got)
		}
		probed = true
	})
	eng.Run()
	if !probed {
		t.Fatal("probe skipped")
	}
}

func TestWGTimeIntegral(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	// 4 concurrent WGs × 10µs each → integral 40 WG·µs.
	k := testKernel("k", 4, 64, 10*sim.Microsecond, 0)
	inst := NewKernelInstance(k, 0, 0, 0)
	driveKernel(eng, d, inst)
	// Nothing is in flight once the run is over, so the integral is closed.
	c := d.Counters().perKernel["k"]
	if got := c.wgNs; got != 40*sim.Microsecond {
		t.Fatalf("WG-time integral %v, want 40µs", got)
	}
	// Mean per-WG latency = integral / completions = 10µs.
	mean := c.wgNs / sim.Time(c.WGsCompleted)
	if mean != 10*sim.Microsecond {
		t.Fatalf("mean WG latency %v, want 10µs", mean)
	}
}

func TestWGTimeIntegralStaggered(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	k := testKernel("k", 1, 64, 10*sim.Microsecond, 0)
	a := NewKernelInstance(k, 0, 0, 0)
	b := NewKernelInstance(k, 1, 1, 0)
	a.MarkReady(0)
	d.TryDispatch(a, -1) // 0-10µs
	eng.Schedule(5*sim.Microsecond, func() {
		b.MarkReady(eng.Now())
		d.TryDispatch(b, -1) // 5-15µs
	})
	eng.Run()
	// Integral: 1 WG for [0,5), 2 for [5,10), 1 for [10,15) = 5+10+5 = 20µs.
	if got := d.Counters().perKernel["k"].wgNs; got != 20*sim.Microsecond {
		t.Fatalf("staggered WG-time integral %v, want 20µs", got)
	}
}

func TestCountersUnknownKernelZeroes(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	if d.Counters().perKernel["ghost"] != nil {
		t.Fatal("unknown kernel has a counter block")
	}
}
