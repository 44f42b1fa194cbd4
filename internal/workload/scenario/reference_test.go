package scenario

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// refGenerate is the sort-based expansion Generate once was, kept as the
// oracle for its answers: every cohort's stream is drawn to the end in
// declaration order, then all jobs are stably sorted by (arrival, cohort,
// sequence). It carries its own copy of the rate schedule so it stays the
// same reference whatever Generate's helpers become.
func refGenerate(s *Spec, lib *workload.Library, seed int64) (*workload.JobSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = s.SeedOrDefault()
	}
	horizon := sim.Time(s.DurationUs) * sim.Microsecond

	type genJob struct {
		j      *workload.Job
		cohort int
		seq    int
	}
	var merged []genJob
	for ci := range s.Cohorts {
		c := &s.Cohorts[ci]
		bench, err := workload.FindBenchmark(c.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("scenario: cohort %q: %w", c.Name, err)
		}
		arrival, err := parseDist(c.Arrival, distArrival)
		if err != nil {
			return nil, fmt.Errorf("scenario: cohort %q: arrival: %w", c.Name, err)
		}
		work, err := parseDist(c.Work, distWork)
		if err != nil {
			return nil, fmt.Errorf("scenario: cohort %q: work: %w", c.Name, err)
		}
		deadline := bench.Deadline
		if c.DeadlineUs > 0 {
			deadline = sim.Time(c.DeadlineUs) * sim.Microsecond
		}
		rng := sim.NewRNG(cohortSeed(seed, ci, c.Name))

		var t sim.Time
		for seq := 0; c.MaxJobs == 0 || seq < c.MaxJobs; seq++ {
			r := refRateAt(c, t)
			for r <= 0 {
				t = refNextChange(c, t)
				if t > horizon {
					break
				}
				r = refRateAt(c, t)
			}
			if t > horizon {
				break
			}
			mean := sim.Time(float64(sim.Second) / r)
			gap := arrival.gap(rng, mean)
			if gap <= 0 {
				gap = 1
			}
			t += gap
			if t > horizon {
				break
			}
			j := bench.Sample(lib, rng, 0, t)
			j.Deadline = deadline
			j.Cohort = c.Name
			j.Criticality = normalizeCriticality(c.Criticality)
			if k := workRepeat(work, rng); k > 1 {
				j.Kernels = repeatChain(j.Kernels, k)
			}
			merged = append(merged, genJob{j: j, cohort: ci, seq: seq})
		}
	}

	sort.SliceStable(merged, func(a, b int) bool {
		if merged[a].j.Arrival != merged[b].j.Arrival {
			return merged[a].j.Arrival < merged[b].j.Arrival
		}
		if merged[a].cohort != merged[b].cohort {
			return merged[a].cohort < merged[b].cohort
		}
		return merged[a].seq < merged[b].seq
	})
	set := &workload.JobSet{
		Benchmark: s.Label(),
		Rate:      workload.ScenarioRate,
		Seed:      seed,
		Jobs:      make([]*workload.Job, len(merged)),
	}
	for i, g := range merged {
		g.j.ID = i
		set.Jobs[i] = g.j
	}
	if len(set.Jobs) == 0 {
		return nil, fmt.Errorf("scenario: %q generated no jobs before the %dµs horizon", s.Name, s.DurationUs)
	}
	return set, nil
}

func refPeriod(c *Cohort) int64 {
	var p int64
	for _, ph := range c.Phases {
		p += ph.DurationUs
	}
	return p
}

func refRateAt(c *Cohort, t sim.Time) float64 {
	tu := int64(t / sim.Microsecond)
	pos := tu % refPeriod(c)
	rate := c.Phases[len(c.Phases)-1].Rate
	for _, ph := range c.Phases {
		if pos < ph.DurationUs {
			rate = ph.Rate
			break
		}
		pos -= ph.DurationUs
	}
	for i := range c.Bursts {
		if c.Bursts[i].covers(tu) {
			rate *= c.Bursts[i].Factor
		}
	}
	return rate
}

func refNextChange(c *Cohort, t sim.Time) sim.Time {
	tu := int64(t / sim.Microsecond)
	period := refPeriod(c)
	cycle := (tu / period) * period
	next := cycle + period
	var cum int64
	for _, ph := range c.Phases {
		cum += ph.DurationUs
		if tu-cycle < cum {
			next = cycle + cum
			break
		}
	}
	for i := range c.Bursts {
		if e, ok := c.Bursts[i].nextEdge(tu); ok && e < next {
			next = e
		}
	}
	nt := sim.Time(next) * sim.Microsecond
	if nt <= t {
		nt = t + sim.Microsecond
	}
	return nt
}

// fleetShapedSpec is a ~150k-job, four-cohort scenario shaped like the
// benchmark's fleet replay: a two-phase STEM cohort, a steady GMM cohort, a
// bursty lognormal CUCKOO cohort and a sparse LSTM cohort over 22 s.
func fleetShapedSpec() *Spec {
	return &Spec{
		Format: FormatTag, Version: Version, Name: "fleet-shaped", Seed: 1, DurationUs: 22_000_000,
		Cohorts: []Cohort{
			{Name: "interactive", Benchmark: "STEM", Criticality: "critical", DeadlineUs: 360,
				Phases: []Phase{{DurationUs: 400_000, Rate: 4600}, {DurationUs: 400_000, Rate: 6200}}},
			{Name: "analytics", Benchmark: "GMM", Criticality: "standard",
				Phases: []Phase{{DurationUs: 1_000_000, Rate: 250}}},
			{Name: "lookup", Benchmark: "CUCKOO", Criticality: "best-effort", Arrival: "lognormal:sigma=1.2",
				Phases: []Phase{{DurationUs: 1_000_000, Rate: 1200}},
				Bursts: []Burst{{AtUs: 8_000_000, DurationUs: 200_000, Factor: 4}}},
			{Name: "chains", Benchmark: "LSTM", Criticality: "standard", DeadlineUs: 20_000,
				Phases: []Phase{{DurationUs: 1_000_000, Rate: 40}}},
		},
	}
}

// tieHeavySpec makes cohorts collide in the same nanosecond: at rates of
// 10⁹ jobs/s and above the mean gap rounds to 0 or 1 ns, so the generator's
// 1 ns clamp puts most arrivals of every cohort on the same instants.
func tieHeavySpec() *Spec {
	return &Spec{
		Format: FormatTag, Version: Version, Name: "ties", DurationUs: 2,
		Cohorts: []Cohort{
			{Name: "clamped", Benchmark: "STEM", Phases: []Phase{{DurationUs: 2, Rate: 2e9}}},
			{Name: "rnn", Benchmark: "HYBRID", Work: "lognormal:sigma=1", Phases: []Phase{{DurationUs: 2, Rate: 1e9}}},
			{Name: "near", Benchmark: "GMM", Phases: []Phase{{DurationUs: 1, Rate: 5e8}, {DurationUs: 1, Rate: 2e9}}},
		},
	}
}

// traceDigest hashes the set's WriteTrace bytes.
func traceDigest(t testing.TB, set *workload.JobSet) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := workload.WriteTrace(h, set); err != nil {
		t.Fatal(err)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// sameExpansion fails unless got is want: the same set metadata and
// WriteTrace bytes, and per job the same ID, sequence length and the very
// same kernel descriptors in the same order.
func sameExpansion(t testing.TB, name string, got, want *workload.JobSet) {
	t.Helper()
	if got.Benchmark != want.Benchmark || got.Rate != want.Rate || got.Seed != want.Seed || len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: set (%s, %v, seed %d, %d jobs), reference (%s, %v, seed %d, %d jobs)", name,
			got.Benchmark, got.Rate, got.Seed, len(got.Jobs), want.Benchmark, want.Rate, want.Seed, len(want.Jobs))
	}
	for i, w := range want.Jobs {
		g := got.Jobs[i]
		if g.ID != w.ID || g.SeqLen != w.SeqLen || len(g.Kernels) != len(w.Kernels) {
			t.Fatalf("%s: job %d is (id %d, seqlen %d, %d kernels), reference (id %d, seqlen %d, %d kernels)", name,
				i, g.ID, g.SeqLen, len(g.Kernels), w.ID, w.SeqLen, len(w.Kernels))
		}
		for k, d := range w.Kernels {
			if g.Kernels[k] != d {
				t.Fatalf("%s: job %d kernel %d is %p (%s), reference %p (%s)", name, i, k, g.Kernels[k], g.Kernels[k].Name, d, d.Name)
			}
		}
	}
	if traceDigest(t, got) != traceDigest(t, want) {
		t.Fatalf("%s: trace bytes differ from the reference", name)
	}
}

// TestGenerateMatchesSortedReference pins Generate to the sort-based
// reference: the committed examples at seeds 1–8, a fleet-sized expansion
// and a spec whose cohorts tie on most instants.
func TestGenerateMatchesSortedReference(t *testing.T) {
	lib := testLib(t)
	check := func(name string, s *Spec, seed int64) {
		t.Helper()
		want, err := refGenerate(s, lib, seed)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := s.Generate(lib, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameExpansion(t, name, got, want)
	}

	files, err := filepath.Glob("../../../examples/scenarios/*.json")
	if err != nil || len(files) != 5 {
		t.Fatalf("want the five example scenarios, found %v (%v)", files, err)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			check(fmt.Sprintf("%s@%d", filepath.Base(path), seed), spec, seed)
		}
	}
	check("fleet-shaped", fleetShapedSpec(), 0)
	check("ties", tieHeavySpec(), 0)
}
