package metrics

import (
	"encoding/json"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// rejectFirst rejects job 0, admits the rest.
type rejectFirst struct{}

func (rejectFirst) Name() string            { return "t" }
func (rejectFirst) Attach(*cp.System)       {}
func (rejectFirst) Admit(j *cp.JobRun) bool { return j.Job.ID != 0 }
func (rejectFirst) Reprioritize()           {}
func (rejectFirst) Interval() sim.Time      { return 0 }
func (rejectFirst) Overheads() cp.Overheads { return cp.Overheads{} }

func TestClassifyMissKinds(t *testing.T) {
	// One CU so jobs serialize: job 1 runs long (contended/size miss),
	// job 2 queues behind it (queued miss), job 0 is rejected.
	cfg := cp.DefaultSystemConfig()
	cfg.GPU.NumCUs = 1
	long := &gpu.KernelDesc{Name: "long", NumWGs: 1, ThreadsPerWG: 2560,
		BaseWGTime: 500 * sim.Microsecond, InstPerThread: 1}
	quick := &gpu.KernelDesc{Name: "quick", NumWGs: 1, ThreadsPerWG: 2560,
		BaseWGTime: 100 * sim.Microsecond, InstPerThread: 1}
	set := &workload.JobSet{Benchmark: "syn", Jobs: []*workload.Job{
		{ID: 0, Arrival: 0, Deadline: sim.Millisecond, Kernels: []*gpu.KernelDesc{quick}},
		// Starts immediately, executes past its own deadline.
		{ID: 1, Arrival: 0, Deadline: 300 * sim.Microsecond, Kernels: []*gpu.KernelDesc{long}},
		// Waits ~500µs behind job 1 (dispatching just before its 550µs
		// deadline), then runs 100µs: wait >> exec → queued miss.
		{ID: 2, Arrival: 0, Deadline: 550 * sim.Microsecond, Kernels: []*gpu.KernelDesc{quick}},
	}}
	sys := cp.NewSystem(cfg, set, rejectFirst{})
	sys.Run()

	if got := ClassifyMiss(sys.Job(0)); got != MissRejected {
		t.Fatalf("job 0: %v, want rejected", got)
	}
	if got := ClassifyMiss(sys.Job(1)); got != MissContended {
		t.Fatalf("job 1: %v, want contended", got)
	}
	if got := ClassifyMiss(sys.Job(2)); got != MissQueued {
		t.Fatalf("job 2: %v, want queued", got)
	}

	breakdown := MissBreakdown(sys)
	total := 0
	for _, n := range breakdown {
		total += n
	}
	if total != 3 {
		t.Fatalf("breakdown counts %d misses, want 3: %v", total, breakdown)
	}

	j2 := sys.Job(2)
	if wait, exec := j2.FirstDispatch-j2.SubmitTime, j2.FinishTime-j2.FirstDispatch; wait <= exec {
		t.Fatalf("job 2 wait %v <= exec %v", wait, exec)
	}
	if j0 := sys.Job(0); j0.FirstDispatch >= 0 || j0.Done() {
		t.Fatal("rejected job ran")
	}
}

func TestClassifyMissStarved(t *testing.T) {
	// Job 1's first dispatch lands after its deadline entirely.
	cfg := cp.DefaultSystemConfig()
	cfg.GPU.NumCUs = 1
	long := &gpu.KernelDesc{Name: "long", NumWGs: 1, ThreadsPerWG: 2560,
		BaseWGTime: sim.Millisecond, InstPerThread: 1}
	quick := &gpu.KernelDesc{Name: "quick", NumWGs: 1, ThreadsPerWG: 2560,
		BaseWGTime: 10 * sim.Microsecond, InstPerThread: 1}
	set := &workload.JobSet{Benchmark: "syn", Jobs: []*workload.Job{
		{ID: 0, Arrival: 0, Deadline: 10 * sim.Millisecond, Kernels: []*gpu.KernelDesc{long}},
		{ID: 1, Arrival: 0, Deadline: 200 * sim.Microsecond, Kernels: []*gpu.KernelDesc{quick}},
	}}
	sys := cp.NewSystem(cfg, set, rejectFirst{})
	// rejectFirst rejects ID 0? No — we want job 0 admitted here. Use a
	// fresh accept-all policy instead.
	sys = cp.NewSystem(cfg, set, acceptAllPolicy{})
	sys.Run()
	if got := ClassifyMiss(sys.Job(1)); got != MissStarved {
		t.Fatalf("job 1: %v, want starved (first dispatch at %v, deadline %v)",
			got, sys.Job(1).FirstDispatch, sys.Job(1).Job.AbsoluteDeadline())
	}
}

type acceptAllPolicy struct{}

func (acceptAllPolicy) Name() string            { return "t" }
func (acceptAllPolicy) Attach(*cp.System)       {}
func (acceptAllPolicy) Admit(*cp.JobRun) bool   { return true }
func (acceptAllPolicy) Reprioritize()           {}
func (acceptAllPolicy) Interval() sim.Time      { return 0 }
func (acceptAllPolicy) Overheads() cp.Overheads { return cp.Overheads{} }

func TestMissKindStrings(t *testing.T) {
	want := map[MissKind]string{
		MissRejected: "rejected", MissCancelled: "cancelled", MissFaulted: "faulted",
		MissStarved: "starved", MissQueued: "queued", MissContended: "contended",
		MissKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d: %q", int(k), k.String())
		}
	}
	if len(MissKinds()) != 6 {
		t.Fatal("MissKinds enumeration wrong")
	}
}

// TestMissKindJSONRoundTrip pins the JSON wire form of every taxonomy
// member: marshal → name string → unmarshal must be the identity, and both
// ParseMissKind and UnmarshalJSON must reject names outside the taxonomy.
func TestMissKindJSONRoundTrip(t *testing.T) {
	for _, k := range MissKinds() {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("%v: marshal: %v", k, err)
		}
		if want := `"` + k.String() + `"`; string(data) != want {
			t.Errorf("%v marshals to %s, want %s", k, data, want)
		}
		var back MissKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: unmarshal: %v", k, err)
		}
		if back != k {
			t.Errorf("round trip %v -> %s -> %v", k, data, back)
		}
		parsed, err := ParseMissKind(k.String())
		if err != nil || parsed != k {
			t.Errorf("ParseMissKind(%q) = %v, %v", k.String(), parsed, err)
		}
	}
	if _, err := json.Marshal(MissKind(99)); err == nil {
		t.Error("marshalling an invalid MissKind should fail")
	}
	var k MissKind
	if err := json.Unmarshal([]byte(`"unknown"`), &k); err == nil {
		t.Error(`"unknown" should not unmarshal: it is the display fallback, not a member`)
	}
	if err := json.Unmarshal([]byte(`3`), &k); err == nil {
		t.Error("ordinal JSON numbers should not unmarshal")
	}
	if _, err := ParseMissKind("nope"); err == nil {
		t.Error("ParseMissKind should reject names outside the taxonomy")
	}
}

// TestMissKindTaxonomyIsClosed guards the enumeration: if a new MissKind
// constant is added after MissContended, this fails until it is given a
// String() name, wired into MissKinds(), and therefore into the JSON
// round trip above.
func TestMissKindTaxonomyIsClosed(t *testing.T) {
	seen := make(map[string]bool)
	for i, k := range MissKinds() {
		if int(k) != i {
			t.Errorf("MissKinds()[%d] = MissKind(%d); enumeration must stay in ordinal order", i, int(k))
		}
		if k.String() == "unknown" {
			t.Errorf("MissKind(%d) in MissKinds() lacks a taxonomy string", int(k))
		}
		if seen[k.String()] {
			t.Errorf("duplicate taxonomy name %q", k.String())
		}
		seen[k.String()] = true
	}
	if next := MissKind(len(MissKinds())); next.String() != "unknown" {
		t.Errorf("MissKind(%d) has a name %q but is missing from MissKinds(); extend MissKinds and the JSON round trip", int(next), next.String())
	}
}
