package verify

import (
	"fmt"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
)

// refSystemConfig returns the production configuration the oracle domain
// maps onto, and the slot count its uniform footprint yields.
func refSystemConfig(t testing.TB) (cp.SystemConfig, int) {
	t.Helper()
	cfg := cp.DefaultSystemConfig()
	desc := &gpu.KernelDesc{
		Name: "probe", NumWGs: 1, ThreadsPerWG: RefThreadsPerWG,
		BaseWGTime: sim.Microsecond,
	}
	slots := gpu.MaxConcurrentWGs(cfg.GPU, desc)
	if slots <= 0 {
		t.Fatalf("reference footprint does not fit the default device")
	}
	return cfg, slots
}

// runProduction replays a reference workload through the real simulator
// under the named policy, with the invariant checker riding along.
func runProduction(t testing.TB, policy string, jobs []RefJob) RefResult {
	t.Helper()
	cfg, _ := refSystemConfig(t)
	pol, err := sched.New(policy)
	if err != nil {
		t.Fatal(err)
	}
	set := RefJobSet(jobs)
	sys := cp.NewSystem(cfg, set, pol)
	ck := New(OptionsFor(policy, pol, cfg, false))
	ck.Attach(sys)
	sys.SetProbe(ck)
	sys.Run()
	if err := ck.Finalize(); err != nil {
		t.Fatalf("%s: invariant violation during oracle run: %v", policy, err)
	}

	res := RefResult{Finish: map[int]sim.Time{}, Missed: map[int]bool{}}
	type fin struct {
		id int
		at sim.Time
	}
	var fins []fin
	for _, jr := range sys.Jobs() {
		if !jr.Done() {
			t.Fatalf("%s: job %d ended in state %v", policy, jr.Job.ID, jr.State())
		}
		fins = append(fins, fin{jr.Job.ID, jr.FinishTime})
		res.Finish[jr.Job.ID] = jr.FinishTime
		res.Missed[jr.Job.ID] = !jr.MetDeadline()
	}
	// Completion order: ascending finish time. Same-instant finishes are
	// ordered by the engine's event sequence, which for job completions
	// follows dispatch order; the reference reproduces times exactly, so
	// order only needs to be canonical and identical on both sides.
	for i := 0; i < len(fins); i++ {
		for j := i + 1; j < len(fins); j++ {
			if fins[j].at < fins[i].at || (fins[j].at == fins[i].at && fins[j].id < fins[i].id) {
				fins[i], fins[j] = fins[j], fins[i]
			}
		}
	}
	for _, f := range fins {
		res.Order = append(res.Order, f.id)
	}
	return res
}

// canonicalize re-sorts a reference result's completion order by (finish
// time, job ID) so both sides compare on the same canonical order.
func canonicalize(r RefResult) RefResult {
	for i := 0; i < len(r.Order); i++ {
		for j := i + 1; j < len(r.Order); j++ {
			a, b := r.Order[i], r.Order[j]
			if r.Finish[b] < r.Finish[a] || (r.Finish[b] == r.Finish[a] && b < a) {
				r.Order[i], r.Order[j] = r.Order[j], r.Order[i]
			}
		}
	}
	return r
}

func diffResults(t *testing.T, policy string, seed int64, jobs []RefJob, got, want RefResult) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("policy=%s seed=%d jobs=%d: %s", policy, seed, len(jobs), fmt.Sprintf(format, args...))
	}
	if len(got.Order) != len(want.Order) {
		fail("completed %d jobs, reference completed %d", len(got.Order), len(want.Order))
		return
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			fail("completion order diverges at position %d: got job %d, reference job %d\n  got  %v\n  want %v",
				i, got.Order[i], want.Order[i], got.Order, want.Order)
			return
		}
	}
	for id, ft := range want.Finish {
		if got.Finish[id] != ft {
			fail("job %d finished at %v, reference says %v", id, got.Finish[id], ft)
			return
		}
	}
	for id, miss := range want.Missed {
		if got.Missed[id] != miss {
			fail("job %d missed=%v, reference says %v", id, got.Missed[id], miss)
			return
		}
	}
}

// TestDifferentialOracle replays generated workloads through the production
// EDF, SJF and RR schedulers and the independent brute-force reference,
// requiring identical completion orders, finish times and miss sets. The
// workload count (≥ 1000 across policies even with -short) is the
// acceptance bar for this oracle.
func TestDifferentialOracle(t *testing.T) {
	_, slots := refSystemConfig(t)
	refCfg := RefConfig{
		Slots:        slots,
		ParseStreams: cp.ParseStreams,
		ParseLatency: cp.ParseLatency,
	}
	perPolicy := 500
	if testing.Short() {
		perPolicy = 350
	}
	for _, policy := range []string{"EDF", "SJF", "RR"} {
		t.Run(policy, func(t *testing.T) {
			misses, total := 0, 0
			for seed := int64(1); seed <= int64(perPolicy); seed++ {
				rng := sim.NewRNG(seed * 7919)
				jobs := RandomRefJobs(rng, 12, slots)
				want, err := Reference(policy, refCfg, jobs)
				if err != nil {
					t.Fatal(err)
				}
				got := runProduction(t, policy, jobs)
				diffResults(t, policy, seed, jobs, got, canonicalize(want))
				if t.Failed() {
					return
				}
				total += len(jobs)
				for _, m := range want.Missed {
					if m {
						misses++
					}
				}
			}
			if misses == 0 || misses == total {
				t.Fatalf("degenerate workload generator: %d/%d misses", misses, total)
			}
		})
	}
}

// TestReferenceRejectsUnknownPolicy pins the oracle's domain boundary.
func TestReferenceRejectsUnknownPolicy(t *testing.T) {
	_, err := Reference("LAX", RefConfig{Slots: 1, ParseStreams: 1}, nil)
	if err == nil {
		t.Fatal("expected an error for a policy without a reference implementation")
	}
}
