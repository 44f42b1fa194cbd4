package sched

import (
	"fmt"
	"sort"

	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
)

// Factory constructs a fresh policy instance. Policies hold run state — and
// reuse per-instance scratch (RR/MLFQ's Order buffers, PREMA's ranking) —
// so every simulation gets its own instance; concurrent sweep workers then
// share nothing.
type Factory func() cp.Policy

var registry = map[string]Factory{
	"RR":      func() cp.Policy { return NewRR() },
	"BAT":     func() cp.Policy { return NewBAT() },
	"BAY":     func() cp.Policy { return NewBAY() },
	"PRO":     func() cp.Policy { return NewPRO() },
	"MLFQ":    func() cp.Policy { return NewMLFQ() },
	"EDF":     func() cp.Policy { return NewEDF() },
	"SJF":     func() cp.Policy { return NewSJF() },
	"SRF":     func() cp.Policy { return NewSRF() },
	"LJF":     func() cp.Policy { return NewLJF() },
	"PREMA":   func() cp.Policy { return NewPREMA() },
	"LAX":     func() cp.Policy { return NewLAX() },
	"LAX-SW":  func() cp.Policy { return NewLAXSW() },
	"LAX-CPU": func() cp.Policy { return NewLAXCPU() },

	// Extensions beyond the paper's Table 3: baselines for analysis (FCFS,
	// the perfect-information ORACLE) and the future-work hybrid (§6.1.2).
	"FCFS":      func() cp.Policy { return NewFCFS() },
	"ORACLE":    func() cp.Policy { return NewORACLE() },
	"LAX-PREMA": func() cp.Policy { return NewLAXPREMA() },
}

// laxAblations are the single-knob LAX variants of the ablation study
// (harness.Ablation), registered under their Name: the two algorithmic
// halves switched off independently, footnote 2's initial-priority
// alternatives, the §4.2/§4.4 update interval halved and stretched 5x, and
// a smoothed profiling table.
var laxAblations = []LAXConfig{
	{Name: "LAX-NOADMIT", DisableAdmission: true},
	{Name: "LAX-FIFO", DisableLaxity: true},
	{Name: "LAX-INIT-LOWEST", InitialPriority: InitLowest},
	{Name: "LAX-INIT-LAXITY", InitialPriority: InitLaxity},
	{Name: "LAX-TICK-50US", UpdateInterval: 50 * sim.Microsecond},
	{Name: "LAX-TICK-500US", UpdateInterval: 500 * sim.Microsecond},
	{Name: "LAX-EWMA-0.5", Alpha: 0.5},
}

func init() {
	for _, cfg := range laxAblations {
		registry[cfg.Name] = func() cp.Policy { return NewLAXWithConfig(cfg) }
	}
}

// New constructs the named policy.
func New(name string) (cp.Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (valid: %v)", name, Names())
	}
	return f(), nil
}

// Names returns every registered scheduler name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Scheduler groups used by the paper's figures.
var (
	// CPUSideSchedulers are the prior host-resident schedulers of Figure 6
	// (compared there against RR and LAX).
	CPUSideSchedulers = []string{"BAT", "BAY", "PRO"}

	// CPSchedulers are the command-processor-extending schedulers of
	// Figure 7 (compared against RR, normalized to RR).
	CPSchedulers = []string{"MLFQ", "EDF", "SJF", "SRF", "LJF", "PREMA"}

	// LaxityVariants are Figure 8's implementations.
	LaxityVariants = []string{"LAX-SW", "LAX-CPU", "LAX"}

	// Table5Schedulers is the column order of Table 5.
	Table5Schedulers = []string{"RR", "MLFQ", "BAT", "BAY", "PRO", "LJF", "SJF", "SRF", "PREMA", "EDF", "LAX"}
)
