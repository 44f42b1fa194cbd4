package faults

import (
	"math"
	"reflect"
	"testing"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("hang=0.05,abort=0.1,slow=0.2x8,retire=4@2ms,recover=off")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		HangProb: 0.05, AbortProb: 0.1, SlowProb: 0.2, SlowFactor: 8,
		Retirements: []gpu.Retirement{{At: 2 * sim.Millisecond, CUs: 4}},
		Recover:     false,
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Zero() || !spec.Recover {
		t.Fatalf("empty spec = %+v, want zero with recovery on", spec)
	}
	spec, err = ParseSpec("slow=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.SlowFactor != 4 {
		t.Fatalf("default slow factor = %g, want 4", spec.SlowFactor)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	in := "hang=0.05,slow=0.2x8,retire=4@2ms,recover=off"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip %+v != %+v", spec, again)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"hang",              // no value
		"hang=2",            // probability out of range
		"hang=-0.1",         // negative
		"slow=0.1x0.5",      // factor ≤ 1
		"retire=4",          // missing @time
		"retire=0@1ms",      // zero CUs
		"retire=4@-1ms",     // negative time
		"recover=maybe",     // bad enum
		"explode=0.5",       // unknown key
		"hang=0.6,slow=0.6", // sums > 1
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", s)
		}
	}
}

func TestPlanDeterministicAndOrderIndependent(t *testing.T) {
	spec, err := ParseSpec("hang=0.2,abort=0.2,slow=0.2x4")
	if err != nil {
		t.Fatal(err)
	}
	a := NewPlan(spec, 42)
	b := NewPlan(spec, 42)

	type key struct{ job, seq, attempt int }
	keys := []key{}
	for job := 0; job < 20; job++ {
		for seq := 0; seq < 5; seq++ {
			for att := 0; att < 3; att++ {
				keys = append(keys, key{job, seq, att})
			}
		}
	}
	got := map[key]gpu.KernelFault{}
	for _, k := range keys {
		got[k] = a.KernelLaunch(0, k.job, k.seq, k.attempt)
	}
	// Query b in reverse order: decisions must match anyway.
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if f := b.KernelLaunch(0, k.job, k.seq, k.attempt); f != got[k] {
			t.Fatalf("plan b disagrees at %+v: %v vs %v", k, f, got[k])
		}
	}
}

func TestPlanSeedsDiffer(t *testing.T) {
	spec, _ := ParseSpec("hang=0.5")
	a, b := NewPlan(spec, 1), NewPlan(spec, 2)
	same := 0
	const n = 200
	for i := 0; i < n; i++ {
		if a.KernelLaunch(0, i, 0, 0) == b.KernelLaunch(0, i, 0, 0) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical fault decisions")
	}
}

func TestPlanRatesApproximateSpec(t *testing.T) {
	spec, _ := ParseSpec("hang=0.1,abort=0.2,slow=0.3")
	p := NewPlan(spec, 7)
	counts := map[gpu.FaultOutcome]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[p.KernelLaunch(0, i, i%7, 0).Outcome]++
	}
	check := func(o gpu.FaultOutcome, want float64) {
		got := float64(counts[o]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v rate %.3f, want ≈%.2f", o, got, want)
		}
	}
	check(gpu.FaultHang, 0.1)
	check(gpu.FaultAbort, 0.2)
	check(gpu.FaultSlow, 0.3)
	check(gpu.FaultNone, 0.4)
}

func TestPlanTraceDeterministic(t *testing.T) {
	spec, _ := ParseSpec("hang=0.3,abort=0.3")
	a, b := NewPlan(spec, 99), NewPlan(spec, 99)
	for i := 0; i < 50; i++ {
		a.KernelLaunch(sim.Time(i)*sim.Microsecond, i, 0, 0)
		b.KernelLaunch(sim.Time(i)*sim.Microsecond, i, 0, 0)
	}
	a.NoteRetirement(sim.Millisecond, 4)
	b.NoteRetirement(sim.Millisecond, 4)
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("traces differ:\n%v\n%v", a.trace, b.trace)
	}
	if len(a.trace) == 0 {
		t.Fatal("trace is empty despite injected faults")
	}
}
