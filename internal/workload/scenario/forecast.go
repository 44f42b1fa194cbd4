package scenario

import (
	"laxgpu/internal/sim"
)

// RateAt returns the scenario's total offered arrival rate (jobs/second)
// at simulated time t: the sum over cohorts of the phase-schedule rate with
// every covering burst window applied. Past the generation horizon the rate
// is 0 — the scenario emits no jobs there, so a capacity planner reading the
// schedule must not provision for phantom load.
//
// This is the forecast surface the predictive autoscaler consumes: the same
// piecewise-constant schedule that drives generation, evaluated ahead of
// time, so "what will the offered rate be at now+lag?" has the exact answer
// the generator will later realize (up to sampling noise).
func (s *Spec) RateAt(t sim.Time) float64 {
	if t < 0 || t >= sim.Time(s.DurationUs)*sim.Microsecond {
		return 0
	}
	var total float64
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		total += c.rateAt(t, c.period())
	}
	return total
}

// maxChangePoints bounds the rate-change scan: a pathological burst overlay
// (tiny every_us over a long horizon) cannot make PeakRate quadratic. The
// committed scenario library is two orders of magnitude below this.
const maxChangePoints = 100000

// PeakRate returns the earliest instant at which the scenario's total
// offered rate is highest, and that rate. The total rate is piecewise
// constant, so the scan only evaluates change points (phase boundaries and
// burst edges across all cohorts) — exact, not sampled.
func (s *Spec) PeakRate() (sim.Time, float64) {
	horizon := sim.Time(s.DurationUs) * sim.Microsecond
	bestAt, best := sim.Time(0), s.RateAt(0)
	t := sim.Time(0)
	for n := 0; n < maxChangePoints; n++ {
		// The next instant any cohort's rate could change.
		next := horizon
		for i := range s.Cohorts {
			c := &s.Cohorts[i]
			if at := c.nextChange(t, c.period()); at < next {
				next = at
			}
		}
		if next >= horizon {
			break
		}
		t = next
		if r := s.RateAt(t); r > best {
			bestAt, best = t, r
		}
	}
	return bestAt, best
}

// PeakShares returns each cohort's offered rate at the scenario's peak
// instant, in cohort declaration order. Cohorts silent at the peak report 0.
// FindCapacity scales these shares to build "this scenario's peak phase,
// offered at rate R" probe workloads.
func (s *Spec) PeakShares() (at sim.Time, shares []float64) {
	at, _ = s.PeakRate()
	shares = make([]float64, len(s.Cohorts))
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		shares[i] = c.rateAt(at, c.period())
	}
	return at, shares
}

// PeakPhase derives a new scenario frozen at this scenario's peak instant:
// every cohort active at the peak keeps its benchmark, deadline override,
// criticality and distributions, but its whole schedule collapses to one
// constant phase carrying the cohort's share of the peak, rescaled so the
// shares sum to totalRate. Bursts are folded into the shares (they are
// measured at the peak instant) and dropped. durationUs sets the derived
// horizon. This is the probe workload behind "capacity under this
// scenario's peak phase": the worst mix the scenario ever offers, replayed
// at an arbitrary aggregate rate.
func (s *Spec) PeakPhase(totalRate float64, durationUs int64) *Spec {
	_, shares := s.PeakShares()
	sum := 0.0
	for _, r := range shares {
		sum += r
	}
	out := &Spec{
		Format:     FormatTag,
		Version:    Version,
		Name:       s.Name + "-peak",
		Seed:       s.Seed,
		DurationUs: durationUs,
	}
	if sum <= 0 {
		return out // validated specs always have a positive peak
	}
	for i := range s.Cohorts {
		if shares[i] <= 0 {
			continue
		}
		c := s.Cohorts[i]
		out.Cohorts = append(out.Cohorts, Cohort{
			Name:        c.Name,
			Benchmark:   c.Benchmark,
			Criticality: c.Criticality,
			DeadlineUs:  c.DeadlineUs,
			Arrival:     c.Arrival,
			Work:        c.Work,
			Phases:      []Phase{{DurationUs: durationUs, Rate: totalRate * shares[i] / sum}},
		})
	}
	return out
}
