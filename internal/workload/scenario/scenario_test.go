package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

func testLib(t *testing.T) *workload.Library {
	t.Helper()
	return workload.NewLibrary(cp.DefaultSystemConfig().GPU)
}

// minimal returns a small valid spec tests mutate.
func minimal() *Spec {
	return &Spec{
		Format:     FormatTag,
		Version:    1,
		Name:       "t",
		DurationUs: 20000,
		Cohorts: []Cohort{{
			Name:      "a",
			Benchmark: "STEM",
			Phases:    []Phase{{DurationUs: 20000, Rate: 4000}},
		}},
	}
}

// Write serializes the spec as canonical indented JSON (stable field order,
// trailing newline), so Parse∘Write∘Parse is the identity and two writes of
// the same spec are byte-identical — a scenario file diffs cleanly.
func (s *Spec) Write(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: write: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func TestWriteParseIdentity(t *testing.T) {
	s := minimal()
	s.Seed = 7
	s.Cohorts[0].Criticality = "critical"
	s.Cohorts[0].Arrival = "pareto:alpha=1.5"
	s.Cohorts[0].Work = "lognormal:sigma=1"
	s.Cohorts[0].Bursts = []Burst{{AtUs: 100, DurationUs: 50, Factor: 3, EveryUs: 1000}}

	var one bytes.Buffer
	if err := s.Write(&one); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(one.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var two bytes.Buffer
	if err := back.Write(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatalf("Write∘Parse∘Write not identity:\n%s\nvs\n%s", one.String(), two.String())
	}
}

func TestExamplesAreCanonical(t *testing.T) {
	files, err := filepath.Glob("../../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var out bytes.Buffer
		if err := spec.Write(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, out.Bytes()) {
			t.Errorf("%s is not in canonical form (re-write differs); run Write to normalize", path)
		}
	}
}

// TestGoldenFingerprints pins the exact expanded trace of every committed
// example scenario. A change here means a committed scenario no longer
// replays the trace reviewers signed off on — that is a format break, not a
// test to update casually (SCENARIOS.md "Determinism").
func TestGoldenFingerprints(t *testing.T) {
	golden := map[string]struct {
		jobs int
		fp   string
	}{
		"steady":       {367, "547132ca30e705de"},
		"diurnal":      {463, "1abcc299f955628a"},
		"burst-storm":  {394, "841613068c17ab8c"},
		"heavy-tail":   {385, "fd7ee1568fac813f"},
		"three-tenant": {613, "f2d361b5e410e25e"},
	}
	lib := testLib(t)
	for name, want := range golden {
		f, err := os.Open(filepath.Join("../../../examples/scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		set, err := spec.Generate(lib, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Jobs) != want.jobs {
			t.Errorf("%s: %d jobs, want %d", name, len(set.Jobs), want.jobs)
		}
		if fp := Fingerprint(set); fp != want.fp {
			t.Errorf("%s: fingerprint %s, want %s", name, fp, want.fp)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	lib := testLib(t)
	s := minimal()
	s.Cohorts[0].Work = "pareto:alpha=2"
	a, err := s.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("same spec and seed produced different traces")
	}
	c, err := s.Generate(lib, 99)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("seed override did not change the trace")
	}
}

// TestGenerateTraceRoundTrip checks record/replay is bit-exact: generating,
// writing the v2 trace, and reading it back preserves every field the
// fingerprint covers.
func TestGenerateTraceRoundTrip(t *testing.T) {
	lib := testLib(t)
	s := minimal()
	s.Cohorts[0].Criticality = "critical"
	s.Cohorts[0].DeadlineUs = 500
	set, err := s.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := workload.ReadTrace(bytes.NewReader(buf.Bytes()), lib, set.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(back) != Fingerprint(set) {
		t.Fatal("trace round trip changed the fingerprint")
	}
	for i, j := range set.Jobs {
		g := back.Jobs[i]
		if j.Arrival != g.Arrival || j.Deadline != g.Deadline || j.Cohort != g.Cohort || j.Criticality != g.Criticality {
			t.Fatalf("job %d changed in round trip: %+v vs %+v", i, j, g)
		}
	}
}

func TestPhaseScheduleShapesArrivals(t *testing.T) {
	lib := testLib(t)
	s := minimal()
	s.DurationUs = 40000
	s.Cohorts[0].Phases = []Phase{
		{DurationUs: 20000, Rate: 1000},
		{DurationUs: 20000, Rate: 8000},
	}
	set, err := s.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi int
	for _, j := range set.Jobs {
		if j.Arrival < 20000*sim.Microsecond {
			lo++
		} else {
			hi++
		}
	}
	// Expected ~20 vs ~160; require a clear ratio rather than exact counts.
	if lo == 0 || hi < 4*lo {
		t.Fatalf("phase rates not reflected: %d jobs in slow phase, %d in fast", lo, hi)
	}
}

func TestSilentPhaseIsSkipped(t *testing.T) {
	lib := testLib(t)
	s := minimal()
	s.DurationUs = 30000
	s.Cohorts[0].Phases = []Phase{
		{DurationUs: 10000, Rate: 4000},
		{DurationUs: 10000, Rate: 0},
		{DurationUs: 10000, Rate: 4000},
	}
	set, err := s.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range set.Jobs {
		if j.Arrival >= 10*sim.Millisecond && j.Arrival < 20*sim.Millisecond {
			// The first arrival after a silent stretch may land just past the
			// boundary (the renewal gap restarts there), but well inside the
			// silent window means rate 0 leaked.
			if j.Arrival > 12*sim.Millisecond {
				t.Fatalf("job at %v inside the silent phase", j.Arrival)
			}
		}
	}
}

func TestBurstMultipliesRate(t *testing.T) {
	lib := testLib(t)
	base := minimal()
	base.DurationUs = 50000
	base.Cohorts[0].Phases = []Phase{{DurationUs: 50000, Rate: 2000}}
	plain, err := base.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	burst := minimal()
	burst.DurationUs = 50000
	burst.Cohorts[0].Phases = []Phase{{DurationUs: 50000, Rate: 2000}}
	burst.Cohorts[0].Bursts = []Burst{{AtUs: 10000, DurationUs: 10000, Factor: 8}}
	stormy, err := burst.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	inWindow := func(set *workload.JobSet) int {
		n := 0
		for _, j := range set.Jobs {
			if j.Arrival >= 10*sim.Millisecond && j.Arrival < 20*sim.Millisecond {
				n++
			}
		}
		return n
	}
	if p, s := inWindow(plain), inWindow(stormy); s < 3*p {
		t.Fatalf("burst window has %d jobs vs %d without burst; want a clear surge", s, p)
	}
}

func TestMaxJobsCapsCohort(t *testing.T) {
	lib := testLib(t)
	s := minimal()
	s.Cohorts[0].MaxJobs = 5
	set, err := s.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Jobs) != 5 {
		t.Fatalf("max_jobs=5 generated %d jobs", len(set.Jobs))
	}
}

func TestDeadlineOverrideAndCriticality(t *testing.T) {
	lib := testLib(t)
	s := minimal()
	s.Cohorts[0].DeadlineUs = 123
	set, err := s.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range set.Jobs {
		if j.Deadline != 123*sim.Microsecond {
			t.Fatalf("deadline %v, want 123µs", j.Deadline)
		}
		if j.Criticality != "standard" {
			t.Fatalf("empty criticality normalized to %q, want standard", j.Criticality)
		}
		if j.Cohort != "a" {
			t.Fatalf("cohort %q", j.Cohort)
		}
	}
}

func TestWorkMultiplierStretchesChains(t *testing.T) {
	lib := testLib(t)
	s := minimal()
	s.Cohorts[0].Work = "pareto:alpha=1.2" // heavy tail: some jobs repeat many times
	set, err := s.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := minimal().Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	chainLen := len(base.Jobs[0].Kernels)
	longest := 0
	for _, j := range set.Jobs {
		if len(j.Kernels)%chainLen != 0 {
			t.Fatalf("job %d chain length %d not a multiple of %d", j.ID, len(j.Kernels), chainLen)
		}
		if k := len(j.Kernels) / chainLen; k > longest {
			longest = k
		}
		if len(j.Kernels) > maxWorkRepeat*chainLen {
			t.Fatalf("job %d exceeds the repeat cap", j.ID)
		}
	}
	if longest < 2 {
		t.Fatal("heavy-tailed work multiplier never stretched a job")
	}
}

// TestMergeOrderIsStable merges cohorts whose arrivals collide: at 10⁹
// jobs/s and above the 1 ns gap clamp puts most arrivals of every cohort on
// the same instants. Same-instant jobs must come in declaration order, each
// cohort's own jobs in sequence order, and IDs must be dense.
func TestMergeOrderIsStable(t *testing.T) {
	lib := testLib(t)
	s := tieHeavySpec()
	set, err := s.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for i, c := range s.Cohorts {
		index[c.Name] = i
	}
	last := map[string]sim.Time{}
	ties := 0
	for i, j := range set.Jobs {
		if j.ID != i {
			t.Fatal("IDs not dense")
		}
		// A cohort's arrivals strictly increase with its sequence number.
		if at, ok := last[j.Cohort]; ok && j.Arrival <= at {
			t.Fatalf("job %d: cohort %s arrives at %v after its job at %v; want sequence order", i, j.Cohort, j.Arrival, at)
		}
		last[j.Cohort] = j.Arrival
		if i == 0 {
			continue
		}
		prev := set.Jobs[i-1]
		switch {
		case j.Arrival < prev.Arrival:
			t.Fatal("merged trace not sorted by arrival")
		case j.Arrival == prev.Arrival:
			if index[j.Cohort] <= index[prev.Cohort] {
				t.Fatalf("job %d (%s) follows job %d (%s) at %v; want declaration order", i, j.Cohort, i-1, prev.Cohort, j.Arrival)
			}
			ties++
		}
	}
	if ties < 100 {
		t.Fatalf("%d same-instant arrivals across cohorts, want at least 100", ties)
	}
}

// TestGenerateAllocsIndependentOfJobCount pins the expansion's allocation
// shape: per cohort and per slab, never per job. Single-kernel cohorts
// without a work multiplier allocate no chain, so a hundredfold longer
// horizon may add at most a few overflow slabs. Generate re-seeds the RNG
// sources the expansion before it released, which a -race build's sync.Pool
// may drop, so the count is taken only without the race detector.
func TestGenerateAllocsIndependentOfJobCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a random quarter of what is put in it")
	}
	lib := testLib(t)
	allocs := func(durationUs int64) (float64, int) {
		s := minimal()
		s.DurationUs = durationUs
		s.Cohorts[0].Phases[0].DurationUs = durationUs
		s.Cohorts = append(s.Cohorts, Cohort{Name: "b", Benchmark: "GMM", Arrival: "lognormal:sigma=1",
			Phases: []Phase{{DurationUs: durationUs, Rate: 2000}}})
		var jobs int
		n := testing.AllocsPerRun(3, func() {
			set, err := s.Generate(lib, 0)
			if err != nil {
				t.Fatal(err)
			}
			jobs = len(set.Jobs)
		})
		return n, jobs
	}
	short, shortJobs := allocs(20_000)
	long, longJobs := allocs(2_000_000)
	if longJobs < 50*shortJobs {
		t.Fatalf("%d and %d jobs: the long horizon should make ~100x more", shortJobs, longJobs)
	}
	if long > short+4 {
		t.Errorf("Generate makes %.0f allocations for %d jobs and %.0f for %d; want growth in slabs, not jobs",
			short, shortJobs, long, longJobs)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Spec)
		want   string
	}{
		"bad format":      {func(s *Spec) { s.Format = "nope" }, "format tag"},
		"future version":  {func(s *Spec) { s.Version = Version + 1 }, "not supported"},
		"zero version":    {func(s *Spec) { s.Version = 0 }, "not supported"},
		"no name":         {func(s *Spec) { s.Name = "" }, "name is required"},
		"no duration":     {func(s *Spec) { s.DurationUs = 0 }, "duration_us"},
		"no cohorts":      {func(s *Spec) { s.Cohorts = nil }, "at least one cohort"},
		"dup cohort":      {func(s *Spec) { s.Cohorts = append(s.Cohorts, s.Cohorts[0]) }, "duplicate cohort"},
		"bad benchmark":   {func(s *Spec) { s.Cohorts[0].Benchmark = "NOPE" }, "unknown benchmark"},
		"bad criticality": {func(s *Spec) { s.Cohorts[0].Criticality = "urgent" }, "criticality"},
		"neg deadline":    {func(s *Spec) { s.Cohorts[0].DeadlineUs = -1 }, "deadline_us"},
		"bad arrival":     {func(s *Spec) { s.Cohorts[0].Arrival = "zipf" }, "arrival"},
		"exp work":        {func(s *Spec) { s.Cohorts[0].Work = "exp" }, "work"},
		"pareto alpha<=1": {func(s *Spec) { s.Cohorts[0].Arrival = "pareto:alpha=1" }, "alpha"},
		"lognormal sigma": {func(s *Spec) { s.Cohorts[0].Work = "lognormal:sigma=0" }, "sigma"},
		"no phases":       {func(s *Spec) { s.Cohorts[0].Phases = nil }, "phase"},
		"zero phase dur":  {func(s *Spec) { s.Cohorts[0].Phases[0].DurationUs = 0 }, "duration_us"},
		"neg rate":        {func(s *Spec) { s.Cohorts[0].Phases[0].Rate = -1 }, "rate"},
		"all silent":      {func(s *Spec) { s.Cohorts[0].Phases[0].Rate = 0 }, "rate 0"},
		"bad burst dur":   {func(s *Spec) { s.Cohorts[0].Bursts = []Burst{{AtUs: 0, DurationUs: 0, Factor: 2}} }, "duration_us"},
		"bad burst every": {func(s *Spec) { s.Cohorts[0].Bursts = []Burst{{AtUs: 0, DurationUs: 100, Factor: 2, EveryUs: 50}} }, "every_us"},
		"neg max jobs":    {func(s *Spec) { s.Cohorts[0].MaxJobs = -1 }, "max_jobs"},
	}
	for name, tc := range cases {
		s := minimal()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

func TestParseRejectsMalformedDocuments(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"format":"laxgpu-scenario","version":1,"name":"x","duration_us":10,"typo":1,"cohorts":[{"name":"a","benchmark":"STEM","phases":[{"duration_us":10,"rate":1000}]}]}`,
		"trailing data": `{"format":"laxgpu-scenario","version":1,"name":"x","duration_us":10,"cohorts":[{"name":"a","benchmark":"STEM","phases":[{"duration_us":10,"rate":1000}]}]} {"again":true}`,
		"not json":      `rate=4000`,
		"empty":         ``,
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSeedOrDefaultAndLabel(t *testing.T) {
	s := minimal()
	if s.SeedOrDefault() != 1 {
		t.Fatal("zero seed should default to 1")
	}
	s.Seed = 42
	if s.SeedOrDefault() != 42 {
		t.Fatal("explicit seed lost")
	}
	if s.Label() != "scenario:t" {
		t.Fatalf("label %q", s.Label())
	}
	if n := s.CohortNames(); len(n) != 1 || n[0] != "a" {
		t.Fatalf("cohort names %v", n)
	}
}
