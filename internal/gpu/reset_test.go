package gpu

import (
	"fmt"
	"slices"
	"testing"

	"laxgpu/internal/sim"
)

// resetTrace runs three kernels of different footprints and memory
// intensities on d, refilling after every WG completion, and records each
// completion instant with everything placement can observe, then the
// counters and energy the run leaves.
func resetTrace(eng *sim.Engine, d *Device) []string {
	ks := []*KernelInstance{
		NewKernelInstance(testKernel("a", 40, 256, 5*sim.Microsecond, 0.6), 1, 0, 0),
		NewKernelInstance(testKernel("b", 25, 1024, 9*sim.Microsecond, 0.1), 2, 1, 0),
		NewKernelInstance(testKernel("c", 60, 64, 3*sim.Microsecond, 0.9), 3, 2, 0),
	}
	refill := func() {
		for _, k := range ks {
			d.TryDispatch(k, -1)
		}
	}
	var out []string
	d.OnWGComplete(func(k *KernelInstance) {
		out = append(out, fmt.Sprintf("%v %s %s", eng.Now(), k.Desc.Name, d))
		refill()
	})
	for _, k := range ks {
		k.MarkReady(eng.Now())
	}
	refill()
	eng.Run()
	c := d.Counters()
	return append(out, fmt.Sprintf("completed=%d dispatched=%d kernels=%d energy=%v active=%d",
		c.TotalCompleted(), c.totalDispatched, len(c.All()), d.Energy().DynamicJoules(), d.ActiveCUs()))
}

// TestDeviceResetMatchesNew: a device Reset after a run — which left
// counters, energy, footprint classes, retired CUs, a stall and a warm WG
// batch pool behind — places and times a workload exactly as a new device
// does, and keeps only the batch pool; Reset to another configuration
// builds the CUs for that one.
func TestDeviceResetMatchesNew(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine()
	want := resetTrace(eng, New(cfg, eng))

	eng = sim.NewEngine()
	d := New(cfg, eng)
	d.RetireCUs(3)
	driveKernel(eng, d, NewKernelInstance(testKernel("z", 90, 512, 7*sim.Microsecond, 0.4), 9, 0, 0))
	d.Stall(50 * sim.Microsecond)
	pool := d.freeBatches
	if pool == nil {
		t.Fatal("the first run left no batch in the pool")
	}
	eng.Reset()
	d.Reset(cfg, eng)
	if d.freeBatches != pool {
		t.Error("Reset dropped the WG batch pool")
	}
	if len(d.Counters().All()) != 0 || d.Counters().perKernel["z"] != nil || d.Energy().DynamicJoules() != 0 ||
		d.Stalled() || d.ActiveCUs() != cfg.NumCUs || len(d.classes) != 0 {
		t.Fatalf("Reset kept state of the last run: %d counters, %v J, stalled %v, %d active CUs, %d classes",
			len(d.Counters().All()), d.Energy().DynamicJoules(), d.Stalled(), d.ActiveCUs(), len(d.classes))
	}
	if got := resetTrace(eng, d); !slices.Equal(got, want) {
		t.Fatalf("a reset device ran differently from a new one:\n got %d lines, last %q\nwant %d lines, last %q",
			len(got), got[len(got)-1], len(want), want[len(want)-1])
	}

	small := cfg
	small.NumCUs = 2
	eng.Reset()
	d.Reset(small, eng)
	if d.Config() != small || len(d.cus) != 2 || d.ActiveCUs() != 2 {
		t.Fatalf("Reset to %d CUs: config CUs %d, %d CUs, %d active", small.NumCUs, d.Config().NumCUs, len(d.cus), d.ActiveCUs())
	}
}
