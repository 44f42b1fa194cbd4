package harness

import (
	"context"
	"fmt"

	"laxgpu/internal/metrics"
	"laxgpu/internal/workload"
)

// ablationConfig is one row of the ablation study: a registered scheduler,
// optionally on a CP whose priority registers are quantized to levels
// hardware levels (0 = full laxity resolution), and the design question the
// row answers.
type ablationConfig struct {
	label  string
	sched  string
	levels int
	why    string
}

// ablations enumerates the paper's stated design choices:
//
//   - footnote 2: initial job priority (highest vs lowest vs initial
//     laxity estimate — the paper measured −10% and −1% for the
//     alternatives);
//   - §4.2/§4.4: the empirically chosen 100 µs update interval;
//   - the two algorithmic halves (Algorithm 1 admission, Algorithm 2
//     laxity), ablated independently;
//   - profiling smoothness (EWMA weight);
//   - §2.2: what LAX loses when the CP can only order queues by 2 or 8
//     priority levels instead of full laxity values;
//   - the future-work LAX+PREMA hybrid.
//
// Row 0 is the paper baseline every row normalizes against.
var ablations = []ablationConfig{
	{"LAX (paper)", "LAX", 0, "baseline configuration"},
	{"init=lowest", "LAX-INIT-LOWEST", 0, "footnote 2: park new jobs at the lowest priority"},
	{"init=laxity", "LAX-INIT-LAXITY", 0, "footnote 2: initial laxity estimate on arrival"},
	{"no-admission", "LAX-NOADMIT", 0, "Algorithm 1 off: laxity priorities only"},
	{"no-laxity", "LAX-FIFO", 0, "Algorithm 2 off: admission control only (FIFO)"},
	{"interval=50µs", "LAX-TICK-50US", 0, "2x faster reprioritization"},
	{"interval=500µs", "LAX-TICK-500US", 0, "5x slower reprioritization"},
	{"ewma=0.5", "LAX-EWMA-0.5", 0, "smoothed completion rates"},
	{"hw-levels=2", "LAX", 2, "§2.2: contemporary APIs expose only a few priority levels"},
	{"hw-levels=8", "LAX", 8, "§2.2: contemporary APIs expose only a few priority levels"},
	{"LAX-PREMA", "LAX-PREMA", 0, "future work (§6.1.2): preempt expired jobs when laxity is tight"},
}

// Ablation regenerates the design-choice study DESIGN.md calls out: each
// LAX knob flipped in isolation, scored as geomean deadline-met relative to
// the paper's configuration. Rows at full priority resolution are ordinary
// memoized cells; the quantized rows run the same traces on a modified CP.
func Ablation(ctx context.Context, r *Runner) *Report {
	benches := workload.BenchmarkNames()
	met := grid(ctx, r, len(ablations), len(benches), func(ctx context.Context, a, b int) (float64, error) {
		cfg := r.Cfg
		cfg.PriorityLevels = ablations[a].levels
		if cfg.PriorityLevels == 0 {
			sum, err := r.RunContext(ctx, ablations[a].sched, benches[b], workload.HighRate)
			return float64(sum.MetDeadline), err
		}
		set, err := r.JobSet(benches[b], workload.HighRate)
		if err != nil {
			return 0, err
		}
		sys, err := r.sim(ctx, Sim{Sched: ablations[a].sched, Cfg: cfg, Set: set})
		if err != nil {
			return 0, err
		}
		return float64(countMet(sys)), nil
	})

	labels := make([]string, len(ablations))
	for a, abl := range ablations {
		labels[a] = abl.label
	}
	t := benchTable("LAX design ablations (high rate, geomean jobs-met normalized to paper LAX)",
		"Config", labels, "GMEAN", metrics.Geomean, f2, func(a, b int) float64 {
			return metrics.Ratio(met[a][b], met[0][b])
		})
	t.Header = append(t.Header, "Why")
	for a := range t.Rows {
		t.Rows[a] = append(t.Rows[a], ablations[a].why)
	}

	return &Report{
		ID:     "ablation",
		Title:  "Which pieces of LAX matter (extension beyond the paper's figures)",
		Tables: []*Table{t},
		Notes: []string{
			"Footnote 2 of the paper reports init=lowest costing ~10% and init=laxity ~1% versus init=highest.",
			"Removing admission (Algorithm 1) or laxity (Algorithm 2) shows each half's contribution; the paper argues both are required.",
			fmt.Sprintf("All cells share arrival traces (seed %d), so differences are attributable to the configuration alone.", r.Seed),
		},
	}
}
