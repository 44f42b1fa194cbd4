package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// experiments lists every experiment ID (the paper's table/figure numbers)
// with its generator, in rendering (paper) order. Generators submit their
// independent simulation cells to the runner's worker pool and assemble the
// report only after the sweep completes, so the rendered bytes do not depend
// on pool width. On simulation errors (including context cancellation) they
// panic; use RunExperiment, which converts cancellation panics back into
// errors.
var experiments = []struct {
	id  string
	run func(context.Context, *Runner) *Report
}{
	{"table1", Table1},
	{"figure1", Figure1},
	{"figure3", Figure3},
	{"figure4", Figure4},
	{"figure6", Figure6},
	{"figure7", Figure7},
	{"figure8", Figure8},
	{"figure9", Figure9},
	{"figure10", Figure10},
	{"table5", Table5},
	{"ablation", Ablation},
	{"analysis", Sensitivity},
	{"seeds", Seeds},
	{"scaling", Scaling},
	{"faults", FaultSweep},
	{"estimates", Estimates},
	{"autoscale", Autoscale},
}

// ExperimentIDs returns the known experiment IDs in paper order.
func ExperimentIDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return out
}

// RunExperiment generates the report for one experiment ID. A cancelled
// context aborts the experiment mid-cell and surfaces the context's error;
// any other generator panic propagates unchanged.
func RunExperiment(ctx context.Context, r *Runner, id string) (rep *Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok && (errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded)) {
				rep, err = nil, e
				return
			}
			panic(p)
		}
	}()
	for _, e := range experiments {
		if e.id == id {
			return e.run(ctx, r), nil
		}
	}
	valid := ExperimentIDs()
	sort.Strings(valid)
	return nil, fmt.Errorf("harness: unknown experiment %q (valid: %v)", id, valid)
}
