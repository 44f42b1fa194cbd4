// Package scenario is the composable workload generator v2: it turns a
// versioned, reviewable scenario file into a deterministic multi-tenant job
// trace. A scenario is a set of tenant cohorts, each with its own benchmark,
// criticality class, deadline override, piecewise arrival-rate schedule
// (diurnal curves), burst overlays, and heavy-tailed inter-arrival and
// service-time distributions. The same file drives the simulator (laxsim
// -scenario), the harness sweep engine, the invariant checker, and
// wall-clock load generation against laxd/laxgw (laxload -scenario).
//
// The file format is JSON with an explicit format tag and version; the
// complete field-by-field specification, the determinism guarantees, and a
// cookbook over examples/scenarios/ live in SCENARIOS.md at the repository
// root.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"laxgpu/internal/workload"
)

// FormatTag identifies a scenario document; a file without it is rejected
// so arbitrary JSON cannot be mistaken for a scenario.
const FormatTag = "laxgpu-scenario"

// Version is the current (and highest understood) scenario format version.
// Versioning rule: readers accept any file whose version is ≤ Version and
// reject newer files loudly; unknown fields are rejected (strict decoding)
// so a typo'd field name cannot silently change a committed scenario's
// meaning. Additive format evolution therefore bumps the version.
const Version = 1

// Spec is one scenario: a named, seeded, horizon-bounded set of tenant
// cohorts whose merged arrivals form the job trace.
type Spec struct {
	// Format must be FormatTag ("laxgpu-scenario").
	Format string `json:"format"`

	// Version is the format version the file was written against
	// (currently 1). Files newer than this package's Version are rejected.
	Version int `json:"version"`

	// Name identifies the scenario in reports; results are labeled
	// "scenario:<name>".
	Name string `json:"name"`

	// Seed makes generation reproducible: the same (file, seed) pair always
	// yields a byte-identical trace. 0 means 1. A -seed flag may override
	// it at run time without editing the file.
	Seed int64 `json:"seed,omitempty"`

	// DurationUs is the generation horizon in microseconds of simulated
	// time: each cohort's arrival process runs from 0 to this instant.
	DurationUs int64 `json:"duration_us"`

	// Cohorts are the tenant populations; at least one is required. Merge
	// order is deterministic: jobs are ordered by arrival time, ties broken
	// by cohort position in this list (a cohort never has two jobs at one
	// instant).
	Cohorts []Cohort `json:"cohorts"`
}

// Cohort is one tenant population: a benchmark, a deadline class, a
// criticality, and an arrival process.
type Cohort struct {
	// Name identifies the cohort; it is stamped on every generated job and
	// preserved through trace record/replay. Required and unique.
	Name string `json:"name"`

	// Benchmark is the Table 4 workload this cohort submits (its kernel
	// chains are sampled from that benchmark's distribution). Required.
	Benchmark string `json:"benchmark"`

	// Criticality is the gateway shedding class: "best-effort", "standard"
	// or "critical". Empty means standard. The simulator ignores it; laxload
	// forwards it so replays exercise criticality-ordered overload shedding.
	Criticality string `json:"criticality,omitempty"`

	// DeadlineUs overrides the benchmark's relative deadline in
	// microseconds; 0 keeps the Table 4 default. This is how cohorts of the
	// same benchmark model distinct deadline classes.
	DeadlineUs int64 `json:"deadline_us,omitempty"`

	// Arrival selects the inter-arrival distribution: "exp" (Poisson, the
	// default), "pareto:alpha=A" or "lognormal:sigma=S". The distribution's
	// mean always tracks the schedule's current rate; the choice only
	// shapes the variability around it.
	Arrival string `json:"arrival,omitempty"`

	// Work optionally samples a per-job service-time multiplier from
	// "pareto:alpha=A" or "lognormal:sigma=S" (mean 1): the job's kernel
	// chain is repeated round(m) times (min 1), stretching its serial time
	// by roughly m. Empty means every job carries one chain.
	Work string `json:"work,omitempty"`

	// Phases is the piecewise arrival-rate schedule, cycled for the whole
	// scenario horizon (the diurnal period is the sum of phase durations).
	// At least one phase with a positive rate is required.
	Phases []Phase `json:"phases"`

	// Bursts are multiplicative rate overlays on top of the phase schedule.
	Bursts []Burst `json:"bursts,omitempty"`

	// MaxJobs caps this cohort's generated jobs; 0 means unbounded (the
	// horizon is the only bound).
	MaxJobs int `json:"max_jobs,omitempty"`
}

// Phase is one segment of a cohort's piecewise-constant rate schedule.
type Phase struct {
	// DurationUs is the segment length in microseconds (> 0).
	DurationUs int64 `json:"duration_us"`

	// Rate is the offered load in jobs/second during the segment; 0 is a
	// silent period (the generator skips to the next segment).
	Rate float64 `json:"rate"`
}

// Burst is a transient rate multiplier: between AtUs and AtUs+DurationUs
// the cohort's scheduled rate is multiplied by Factor. EveryUs repeats the
// window periodically.
type Burst struct {
	// AtUs is the start of the (first) burst window, in microseconds.
	AtUs int64 `json:"at_us"`

	// DurationUs is the window length in microseconds (> 0).
	DurationUs int64 `json:"duration_us"`

	// Factor multiplies the scheduled rate inside the window (> 0; values
	// below 1 model dips).
	Factor float64 `json:"factor"`

	// EveryUs repeats the window with this period (0 = one-shot;
	// otherwise must be ≥ DurationUs).
	EveryUs int64 `json:"every_us,omitempty"`
}

// Parse reads and validates a scenario document. Decoding is strict:
// unknown fields, a missing format tag, or a version newer than this
// package's are errors.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	// Trailing garbage after the document means the file is not one
	// scenario; reject rather than silently ignore.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate reports the first structural error in the spec, or nil.
func (s *Spec) Validate() error {
	if s.Format != FormatTag {
		return fmt.Errorf("scenario: format tag %q, want %q", s.Format, FormatTag)
	}
	if s.Version < 1 || s.Version > Version {
		return fmt.Errorf("scenario: version %d not supported (this build understands 1..%d)", s.Version, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if s.DurationUs <= 0 {
		return fmt.Errorf("scenario: duration_us must be positive (got %d)", s.DurationUs)
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("scenario: at least one cohort is required")
	}
	seen := make(map[string]bool, len(s.Cohorts))
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if err := c.validate(); err != nil {
			return fmt.Errorf("scenario: cohort %d (%q): %w", i, c.Name, err)
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario: duplicate cohort name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// validate checks one cohort.
func (c *Cohort) validate() error {
	if c.Name == "" {
		return fmt.Errorf("name is required")
	}
	if _, err := workload.FindBenchmark(c.Benchmark); err != nil {
		return err
	}
	switch c.Criticality {
	case "", "best-effort", "standard", "critical":
	default:
		return fmt.Errorf("unknown criticality %q (want best-effort, standard or critical)", c.Criticality)
	}
	if c.DeadlineUs < 0 {
		return fmt.Errorf("deadline_us must be non-negative (got %d)", c.DeadlineUs)
	}
	if _, err := parseDist(c.Arrival, distArrival); err != nil {
		return fmt.Errorf("arrival: %w", err)
	}
	if _, err := parseDist(c.Work, distWork); err != nil {
		return fmt.Errorf("work: %w", err)
	}
	if len(c.Phases) == 0 {
		return fmt.Errorf("at least one phase is required")
	}
	anyRate := false
	for i, p := range c.Phases {
		if p.DurationUs <= 0 {
			return fmt.Errorf("phase %d: duration_us must be positive (got %d)", i, p.DurationUs)
		}
		if p.Rate < 0 {
			return fmt.Errorf("phase %d: rate must be non-negative (got %g)", i, p.Rate)
		}
		if p.Rate > 0 {
			anyRate = true
		}
	}
	if !anyRate {
		return fmt.Errorf("every phase has rate 0; the cohort would never submit")
	}
	for i, b := range c.Bursts {
		if b.AtUs < 0 {
			return fmt.Errorf("burst %d: at_us must be non-negative (got %d)", i, b.AtUs)
		}
		if b.DurationUs <= 0 {
			return fmt.Errorf("burst %d: duration_us must be positive (got %d)", i, b.DurationUs)
		}
		if b.Factor <= 0 {
			return fmt.Errorf("burst %d: factor must be positive (got %g)", i, b.Factor)
		}
		if b.EveryUs != 0 && b.EveryUs < b.DurationUs {
			return fmt.Errorf("burst %d: every_us %d shorter than duration_us %d", i, b.EveryUs, b.DurationUs)
		}
	}
	if c.MaxJobs < 0 {
		return fmt.Errorf("max_jobs must be non-negative (got %d)", c.MaxJobs)
	}
	return nil
}

// SeedOrDefault resolves the effective seed (0 means 1, mirroring
// laxgpu.Options.Seed).
func (s *Spec) SeedOrDefault() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// Label is the benchmark-style name scenario results carry:
// "scenario:<name>".
func (s *Spec) Label() string { return "scenario:" + s.Name }

// CohortNames returns the cohort names in declaration order (the
// deterministic merge tie-break order).
func (s *Spec) CohortNames() []string {
	names := make([]string, len(s.Cohorts))
	for i := range s.Cohorts {
		names[i] = s.Cohorts[i].Name
	}
	return names
}

// normalizeCriticality returns the criticality with the documented default
// applied (empty means "standard").
func normalizeCriticality(c string) string {
	if c == "" {
		return "standard"
	}
	return c
}
