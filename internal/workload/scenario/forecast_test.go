package scenario

import (
	"testing"

	"laxgpu/internal/sim"
)

// us converts microseconds to sim.Time for readable test instants.
func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

func TestRateAtDiurnal(t *testing.T) {
	s, err := Builtin("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	// 20ms@1000 / 20ms@8000 / 20ms@2000, cycling over a 120ms horizon.
	cases := []struct {
		at   sim.Time
		want float64
	}{
		{0, 1000},
		{us(19999), 1000},
		{us(20000), 8000},
		{us(39999), 8000},
		{us(40000), 2000},
		{us(60000), 1000}, // second cycle
		{us(80000), 8000},
		{us(119999), 2000},
		{us(120000), 0}, // at the horizon: no more jobs
		{us(500000), 0},
		{-1, 0},
	}
	for _, c := range cases {
		if got := s.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v) = %g, want %g", c.at, got, c.want)
		}
	}
}

func TestRateAtBurstOverlay(t *testing.T) {
	s, err := Builtin("burst-storm")
	if err != nil {
		t.Fatal(err)
	}
	// 2000/s base with a ×6 window of 5ms every 25ms starting at 10ms.
	if got := s.RateAt(us(5000)); got != 2000 {
		t.Errorf("base rate = %g, want 2000", got)
	}
	if got := s.RateAt(us(12000)); got != 12000 {
		t.Errorf("burst rate = %g, want 12000", got)
	}
	if got := s.RateAt(us(15000)); got != 2000 {
		t.Errorf("post-burst rate = %g, want 2000", got)
	}
	if got := s.RateAt(us(36000)); got != 12000 {
		t.Errorf("repeated burst rate = %g, want 12000", got)
	}
}

func TestRateAtSumsCohorts(t *testing.T) {
	s, err := Builtin("three-tenant")
	if err != nil {
		t.Fatal(err)
	}
	// interactive 6000 + analytics 1000 + batch 1500 in the first half,
	// analytics steps to 3000 in the second.
	if got := s.RateAt(us(10000)); got != 8500 {
		t.Errorf("first-half total = %g, want 8500", got)
	}
	if got := s.RateAt(us(40000)); got != 10500 {
		t.Errorf("second-half total = %g, want 10500", got)
	}
}

func TestPeakRate(t *testing.T) {
	cases := []struct {
		builtin string
		wantAt  sim.Time
		want    float64
	}{
		{"diurnal", us(20000), 8000},
		{"burst-storm", us(10000), 12000},
		{"three-tenant", us(30000), 10500},
	}
	for _, c := range cases {
		s, err := Builtin(c.builtin)
		if err != nil {
			t.Fatal(err)
		}
		at, r := s.PeakRate()
		if at != c.wantAt || r != c.want {
			t.Errorf("%s: PeakRate() = (%v, %g), want (%v, %g)", c.builtin, at, r, c.wantAt, c.want)
		}
	}
}

func TestPeakShares(t *testing.T) {
	s, err := Builtin("three-tenant")
	if err != nil {
		t.Fatal(err)
	}
	at, shares := s.PeakShares()
	if at != us(30000) {
		t.Fatalf("peak at %v, want %v", at, us(30000))
	}
	want := []float64{6000, 3000, 1500}
	for i, w := range want {
		if shares[i] != w {
			t.Errorf("share[%d] (%s) = %g, want %g", i, s.Cohorts[i].Name, shares[i], w)
		}
	}
}

func TestBuiltinUnknown(t *testing.T) {
	if _, err := Builtin("nope"); err == nil {
		t.Fatal("expected error for unknown builtin")
	}
}

// TestRateAtMatchesGeneratedDensity sanity-checks that the forecast surface
// and the generator agree: over the diurnal peak phase the realized arrival
// count is within sampling noise of RateAt × duration.
func TestRateAtMatchesGeneratedDensity(t *testing.T) {
	s, err := Builtin("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	lib := testLib(t)
	set, err := s.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, j := range set.Jobs {
		if j.Arrival >= us(20000) && j.Arrival < us(40000) {
			count++
		}
	}
	want := 8000.0 * 0.020 // 160 expected in the 20ms peak window
	if float64(count) < want*0.6 || float64(count) > want*1.4 {
		t.Errorf("peak-window arrivals = %d, want ~%g (forecast disagrees with generator)", count, want)
	}
}

func TestPeakPhaseScalesSharesToTotal(t *testing.T) {
	s, err := Builtin("three-tenant")
	if err != nil {
		t.Fatal(err)
	}
	const total = 1200.0
	p := s.PeakPhase(total, 500000)
	if err := p.Validate(); err != nil {
		t.Fatalf("derived peak spec invalid: %v", err)
	}
	if p.DurationUs != 500000 {
		t.Errorf("DurationUs = %d, want 500000", p.DurationUs)
	}
	sum := 0.0
	for _, c := range p.Cohorts {
		if len(c.Phases) != 1 {
			t.Fatalf("cohort %q has %d phases, want 1", c.Name, len(c.Phases))
		}
		if len(c.Bursts) != 0 {
			t.Fatalf("cohort %q kept bursts across PeakPhase", c.Name)
		}
		sum += c.Phases[0].Rate
	}
	if sum < total-1e-9 || sum > total+1e-9 {
		t.Errorf("peak-phase rates sum to %g, want %g", sum, total)
	}
	// The mix must match the original peak shares' proportions.
	_, shares := s.PeakShares()
	shareSum := 0.0
	for _, r := range shares {
		shareSum += r
	}
	si := 0
	for _, r := range shares {
		if r <= 0 {
			continue
		}
		want := total * r / shareSum
		got := p.Cohorts[si].Phases[0].Rate
		if got < want-1e-9 || got > want+1e-9 {
			t.Errorf("cohort %q rate = %g, want %g", p.Cohorts[si].Name, got, want)
		}
		si++
	}
	// The derived spec generates a trace of roughly total×horizon jobs.
	set, err := p.Generate(testLib(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := total * 0.5 // 600 expected over the 500ms horizon
	if n := float64(len(set.Jobs)); n < want*0.7 || n > want*1.3 {
		t.Errorf("peak-phase trace has %d jobs, want ~%g", len(set.Jobs), want)
	}
}
