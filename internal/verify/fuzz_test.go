package verify

import (
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
)

// byteReader doles bounded values out of a fuzz input; exhausted input
// yields zeros, so every byte string decodes to some workload.
type byteReader struct {
	data []byte
	i    int
}

func (r *byteReader) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

func (r *byteReader) intn(n int) int { return int(r.next()) % n }

// refWorkload decodes a bounded reference workload from the reader: up to
// eight jobs, strictly increasing arrivals, one to three kernels each,
// deadlines spanning tight to loose relative to the job's isolated time.
func refWorkload(r *byteReader, slots int) []RefJob {
	n := 1 + r.intn(8)
	jobs := make([]RefJob, 0, n)
	var at sim.Time
	for i := 0; i < n; i++ {
		at += sim.Time(1+r.intn(48)) * sim.Microsecond
		nk := 1 + r.intn(3)
		ks := make([]RefKernel, 0, nk)
		for k := 0; k < nk; k++ {
			ks = append(ks, RefKernel{
				WGs:    1 + r.intn(2*slots),
				WGTime: sim.Time(1+r.intn(12)) * sim.Microsecond,
			})
		}
		iso := refIsolatedTime(slots, ks)
		deadline := iso/2 + sim.Time(r.intn(255))*iso/64
		if deadline <= 0 {
			deadline = sim.Microsecond
		}
		jobs = append(jobs, RefJob{ID: i, Arrival: at, Deadline: deadline, Kernels: ks})
	}
	return jobs
}

// FuzzCheckedWorkload decodes arbitrary bytes into a reference-domain
// workload and replays it through the production simulator with the
// invariant checker attached. EDF and RR are additionally diffed against
// the brute-force Reference; LAX has no reference and is held to the
// checker's invariants alone.
func FuzzCheckedWorkload(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07"))
	f.Add([]byte("tight deadlines ahead"))
	f.Add([]byte("\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1\xf0"))
	f.Add([]byte("\x07\x2a\x00\x63\x11\x11\x11\x11\x11\x11\x11\x11\x11\x11\x11"))

	_, slots := refSystemConfig(f)
	refCfg := RefConfig{
		Slots:        slots,
		ParseStreams: cp.ParseStreams,
		ParseLatency: cp.ParseLatency,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs := refWorkload(&byteReader{data: data}, slots)
		for _, policy := range []string{"EDF", "RR"} {
			want, err := Reference(policy, refCfg, jobs)
			if err != nil {
				t.Fatalf("%s: reference rejected generated workload: %v", policy, err)
			}
			got := runProduction(t, policy, jobs)
			diffResults(t, policy, 0, jobs, got, canonicalize(want))
		}
		metaRun(t, "LAX", jobs) // LAX may reject; the checker validates the run
	})
}

// FuzzFaultPlan decodes arbitrary bytes into a fault specification plus a
// scheduler choice and runs a decoded workload under injection with the
// checker in its fault profile (stranded jobs legal, dispatch order
// unchecked). The spec's canonical string form must also round-trip
// through faults.ParseSpec.
func FuzzFaultPlan(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\x05\x05\x00\x02\x01\x01\x01"))
	f.Add([]byte("\x0f\x0f\x0f\x05\x01\x02\x03hang and retire"))
	f.Add([]byte("\x00\x00\x00\x00\x00\x01\x02recover off"))
	f.Add([]byte("\x01\x03\x07\x0f\x1f\x3f\x7f\xff"))

	cfgBase, slots := refSystemConfig(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		spec := faults.Spec{
			HangProb:   float64(r.intn(16)) / 100,
			AbortProb:  float64(r.intn(16)) / 100,
			SlowProb:   float64(r.intn(16)) / 100,
			SlowFactor: float64(2 + r.intn(6)),
			Recover:    r.intn(2) == 0,
		}
		if cus := r.intn(3); cus > 0 {
			spec.Retirements = append(spec.Retirements, gpu.Retirement{
				CUs: cus,
				At:  sim.Time(1+r.intn(4)) * sim.Millisecond,
			})
		}
		if back, err := faults.ParseSpec(spec.String()); err != nil {
			t.Fatalf("canonical spec %q failed to parse: %v", spec, err)
		} else if back.String() != spec.String() {
			t.Fatalf("spec round trip changed %q to %q", spec, back)
		}
		policies := []string{"LAX", "EDF", "RR", "BAY"}
		policy := policies[r.intn(len(policies))]
		jobs := refWorkload(r, slots)

		cfg := cfgBase
		if spec.Recover {
			cfg.Recover = true
		}
		pol, err := sched.New(policy)
		if err != nil {
			t.Fatal(err)
		}
		sys := cp.NewSystem(cfg, RefJobSet(jobs), pol)
		if !spec.Zero() {
			sys.InstallFaults(faults.NewPlan(spec, int64(len(data))+1), spec.Retirements)
		}
		ck := New(OptionsFor(policy, pol, cfg, !spec.Zero()))
		ck.Attach(sys)
		sys.SetProbe(ck)
		sys.Run()
		if err := ck.Finalize(); err != nil {
			t.Fatalf("%s under %q: invariant violation: %v", policy, spec, err)
		}
	})
}
