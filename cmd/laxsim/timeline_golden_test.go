package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"laxgpu/internal/harness"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from this tree's output")

// TestTimelineGolden pins laxsim's -run -timeline output: the 13 sweep
// schedulers (Table 5's columns plus LAX-SW and LAX-CPU) × 8 benchmarks at 64
// jobs, high rate, on a healthy device; LAX-PREMA on LSTM, which cancels
// jobs; and LAX on LSTM under hangs and aborts with recovery on, and under
// aborts with recovery off. The golden stores one sha256 per run, so a drift
// names the run that moved.
func TestTimelineGolden(t *testing.T) {
	var golden bytes.Buffer
	render := func(name, schedName, bench, faults string) {
		t.Helper()
		r := harness.NewRunner()
		r.JobCount = 64
		r.Faults = faults
		var out bytes.Buffer
		cell := harness.Cell{Sched: schedName, Bench: bench, Rate: workload.HighRate}
		if _, err := runObserved(context.Background(), &out, r, cell, obsOptions{timeline: true}, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&golden, "%s %d bytes %x\n", name, out.Len(), sha256.Sum256(out.Bytes()))
	}
	schedulers := append(append([]string(nil), sched.Table5Schedulers...), "LAX-SW", "LAX-CPU")
	for _, s := range schedulers {
		for _, b := range workload.BenchmarkNames() {
			render(s+"/"+b, s, b, "")
		}
	}
	render("LAX-PREMA/LSTM", "LAX-PREMA", "LSTM", "")
	render("LAX/LSTM/recovered", "LAX", "LSTM", "hang=0.1,abort=0.1")
	render("LAX/LSTM/unrecovered", "LAX", "LSTM", "abort=0.2,recover=off")

	path := filepath.Join("testdata", "timeline.golden.sha256")
	if *update {
		if err := os.WriteFile(path, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("timeline drifted; first differing run:\n got  %s\n want %s", gl[i], wl[i])
			}
		}
		t.Fatalf("timeline drifted: %d runs now, golden has %d", len(gl), len(wl))
	}
}
