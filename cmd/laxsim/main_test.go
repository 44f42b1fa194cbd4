package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles the laxsim binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "laxsim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build failed: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildCLI(t)

	t.Run("list", func(t *testing.T) {
		out, err := run(t, bin, "-list")
		if err != nil {
			t.Fatal(err, out)
		}
		for _, id := range []string{"table1", "figure7", "table5", "ablation", "analysis"} {
			if !strings.Contains(out, id) {
				t.Errorf("-list missing %q:\n%s", id, out)
			}
		}
	})

	t.Run("run-cell", func(t *testing.T) {
		out, err := run(t, bin, "-run", "LAX,IPV6,high", "-jobs", "32")
		if err != nil {
			t.Fatal(err, out)
		}
		if !strings.Contains(out, "LAX on IPV6") || !strings.Contains(out, "met deadline") {
			t.Errorf("unexpected -run output:\n%s", out)
		}
	})

	t.Run("experiment-markdown", func(t *testing.T) {
		out, err := run(t, bin, "-experiment", "figure3", "-format", "markdown")
		if err != nil {
			t.Fatal(err, out)
		}
		if !strings.Contains(out, "## Figure3:") || !strings.Contains(out, "| --- |") {
			t.Errorf("markdown output wrong:\n%s", out)
		}
	})

	t.Run("trace-and-timeline", func(t *testing.T) {
		tracePath := filepath.Join(t.TempDir(), "t.jsonl")
		out, err := run(t, bin, "-run", "RR,STEM,high", "-jobs", "16", "-trace", tracePath, "-timeline")
		if err != nil {
			t.Fatal(err, out)
		}
		if !strings.Contains(out, "trace events") || !strings.Contains(out, "legend:") {
			t.Errorf("trace/timeline output wrong:\n%s", out)
		}
		data, err := os.ReadFile(tracePath)
		if err != nil || len(data) == 0 {
			t.Fatalf("trace file empty: %v", err)
		}
	})

	t.Run("sweep-csv", func(t *testing.T) {
		csvPath := filepath.Join(t.TempDir(), "s.csv")
		out, err := run(t, bin, "-sweep", "low", "-jobs", "8", "-csv", csvPath)
		if err != nil {
			t.Fatal(err, out)
		}
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "scheduler,benchmark,rate") {
			t.Errorf("csv header wrong:\n%.120s", data)
		}
		// 11 Table 5 schedulers x 8 benchmarks + header.
		if lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; lines != 89 {
			t.Errorf("csv has %d lines, want 89", lines)
		}
	})

	t.Run("metrics-perfetto-probe", func(t *testing.T) {
		dir := t.TempDir()
		metricsPath := filepath.Join(dir, "m.prom")
		perfettoPath := filepath.Join(dir, "t.json")
		out, err := run(t, bin, "-run", "LAX,LSTM,high", "-jobs", "24",
			"-metrics", metricsPath, "-perfetto", perfettoPath, "-probe")
		if err != nil {
			t.Fatal(err, out)
		}
		for _, want := range []string{"wrote metrics to", "Perfetto events", "probe:", "kernel estimates:"} {
			if !strings.Contains(out, want) {
				t.Errorf("probed -run output missing %q:\n%s", want, out)
			}
		}
		prom, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range []string{"laxsim_admissions_accepted_total", "laxsim_estimate_kernel_error_us"} {
			if !strings.Contains(string(prom), fam) {
				t.Errorf("metrics file missing %q:\n%.300s", fam, prom)
			}
		}
		raw, err := os.ReadFile(perfettoPath)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("perfetto file is not valid JSON: %v", err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Error("perfetto traceEvents is empty")
		}
	})

	t.Run("verify", func(t *testing.T) {
		// A checked run reports the check count, with or without observers,
		// and summed over the GPUs of a fleet run.
		for _, extra := range [][]string{nil, {"-probe"}, {"-gpus", "2"}} {
			out, err := run(t, bin, append([]string{"-run", "LAX,IPV6,high", "-jobs", "16", "-verify"}, extra...)...)
			if err != nil {
				t.Fatal(err, out)
			}
			if !strings.Contains(out, "met deadline") || !strings.Contains(out, "invariant checks, no violations") {
				t.Errorf("checked -run %v missing result or verify summary:\n%s", extra, out)
			}
		}
		// Checked fault-injected run: relaxed rules still pass.
		out, err := run(t, bin, "-run", "EDF,CUCKOO,high", "-jobs", "16", "-verify",
			"-faults", "hang=0.1,abort=0.1")
		if err != nil {
			t.Fatal(err, out)
		}
		if !strings.Contains(out, "recovery:") {
			t.Errorf("checked faulted run missing recovery counters:\n%s", out)
		}
	})

	t.Run("run-faults", func(t *testing.T) {
		out, err := run(t, bin, "-run", "LAX,LSTM,medium", "-jobs", "32", "-faults", "hang=0.1,abort=0.1")
		if err != nil {
			t.Fatal(err, out)
		}
		if !strings.Contains(out, "recovery:") || !strings.Contains(out, "watchdog kills") {
			t.Errorf("faulted -run missing recovery counters:\n%s", out)
		}
	})

	t.Run("faults-with-observers", func(t *testing.T) {
		// One recipe: the observer path installs the fault plan too, so the
		// observed run reports the same outcome as the bare one and the
		// trace shows the recovery it watched.
		cell := []string{"-run", "LAX,LSTM,high", "-jobs", "32", "-faults", "hang=0.05,abort=0.1"}
		bare, err := run(t, bin, cell...)
		if err != nil {
			t.Fatal(err, bare)
		}
		tracePath := filepath.Join(t.TempDir(), "t.jsonl")
		out, err := run(t, bin, append(cell, "-trace", tracePath, "-probe")...)
		if err != nil {
			t.Fatal(err, out)
		}
		headline := func(s string) string { return s[:strings.Index(s, "\n")] }
		if !strings.Contains(headline(bare), "met deadline") || headline(out) != headline(bare) {
			t.Errorf("observed faulted run diverged from the bare one:\n%s\nvs\n%s", out, bare)
		}
		for _, want := range []string{"recovery:", "probe:", "trace events"} {
			if !strings.Contains(out, want) {
				t.Errorf("observed faulted run missing %q:\n%s", want, out)
			}
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"kind":"fallback"`) {
			t.Error("faulted trace records no fallback event")
		}
		// The same holds for a scenario cell.
		out, err = run(t, bin, "-scenario", "../../examples/scenarios/three-tenant.json",
			"-run", "LAX", "-verify", "-faults", "retire=2@2ms", "-probe")
		if err != nil {
			t.Fatal(err, out)
		}
		for _, want := range []string{"2 CUs retired", "probe:", "invariant checks, no violations"} {
			if !strings.Contains(out, want) {
				t.Errorf("faulted scenario run missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("errors", func(t *testing.T) {
		if out, err := run(t, bin, "-run", "NOPE,IPV6,high"); err == nil {
			t.Errorf("unknown scheduler accepted:\n%s", out)
		}
		if out, err := run(t, bin, "-run", "malformed"); err == nil {
			t.Errorf("malformed -run accepted:\n%s", out)
		}
		if out, err := run(t, bin, "-experiment", "figure99"); err == nil {
			t.Errorf("unknown experiment accepted:\n%s", out)
		}
		if out, err := run(t, bin, "-sweep", "ultra"); err == nil {
			t.Errorf("unknown sweep rate accepted:\n%s", out)
		}
		if out, err := run(t, bin, "-run", "LAX,IPV6,high", "-faults", "hang=2"); err == nil {
			t.Errorf("invalid fault spec accepted:\n%s", out)
		}
	})

	t.Run("scenario-sweep", func(t *testing.T) {
		out, err := run(t, bin, "-scenario", "../../examples/scenarios/three-tenant.json")
		if err != nil {
			t.Fatal(err, out)
		}
		for _, want := range []string{"scenario three-tenant: 3 cohorts", "fingerprint", "sched", "LAX", "EDF", "PREMA"} {
			if !strings.Contains(out, want) {
				t.Errorf("scenario sweep missing %q:\n%s", want, out)
			}
		}
		// Determinism is the headline contract: two invocations must print
		// byte-identical reports.
		again, err := run(t, bin, "-scenario", "../../examples/scenarios/three-tenant.json")
		if err != nil {
			t.Fatal(err, again)
		}
		if out != again {
			t.Errorf("scenario sweep not deterministic:\n%s\nvs\n%s", out, again)
		}
	})

	t.Run("scenario-run", func(t *testing.T) {
		out, err := run(t, bin, "-scenario", "../../examples/scenarios/three-tenant.json", "-run", "LAX", "-verify")
		if err != nil {
			t.Fatal(err, out)
		}
		for _, want := range []string{"LAX on scenario:three-tenant", "cohort interactive",
			"cohort analytics", "cohort batch", "invariant checks, no violations"} {
			if !strings.Contains(out, want) {
				t.Errorf("scenario run missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("scenario-record", func(t *testing.T) {
		rec := filepath.Join(t.TempDir(), "trace.csv")
		out, err := run(t, bin, "-scenario", "../../examples/scenarios/steady.json", "-run", "EDF", "-record", rec)
		if err != nil {
			t.Fatal(err, out)
		}
		data, err := os.ReadFile(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "arrival_ns,deadline_ns,kernels,benchmark,cohort,criticality") {
			t.Errorf("recorded trace is not v2:\n%.120s", data)
		}
	})

	t.Run("scenario-seed-override", func(t *testing.T) {
		base, err := run(t, bin, "-scenario", "../../examples/scenarios/steady.json", "-run", "EDF")
		if err != nil {
			t.Fatal(err, base)
		}
		over, err := run(t, bin, "-scenario", "../../examples/scenarios/steady.json", "-run", "EDF", "-seed", "9")
		if err != nil {
			t.Fatal(err, over)
		}
		if base == over {
			t.Error("-seed did not override the scenario file's seed")
		}
		if !strings.Contains(over, "seed 9") {
			t.Errorf("override seed not reported:\n%s", over)
		}
	})

	t.Run("scenario-flag-validation", func(t *testing.T) {
		scen := "../../examples/scenarios/steady.json"
		bad := [][]string{
			{"-scenario", scen, "-experiment", "figure3"},
			{"-scenario", scen, "-sweep", "low"},
			{"-scenario", scen, "-run", "LAX,IPV6,high"},
			{"-scenario", scen, "-timeline"},
			{"-scenario", scen, "-probe"},
			{"-scenario", scen, "-gpus", "2"},
			{"-scenario", scen, "-metrics", "m.prom"},
			{"-scenario", scen, "-run", "LAX", "-csv", "out.csv"},
			{"-record", "trace.csv"},
			{"-scenario", "no-such-file.json"},
		}
		for _, args := range bad {
			if out, err := run(t, bin, args...); err == nil {
				t.Errorf("contradictory flags %v accepted:\n%s", args, out)
			}
		}
	})

	t.Run("flag-validation", func(t *testing.T) {
		bad := [][]string{
			{"-run", "LAX,IPV6,high", "-sweep", "low"},
			{"-run", "LAX,IPV6,high", "-experiment", "figure3"},
			{"-sweep", "low", "-experiment", "figure3"},
			{"-trace", "t.jsonl"},
			{"-timeline"},
			{"-gpus", "2"},
			{"-gpus", "0", "-run", "LAX,IPV6,high"},
			{"-csv", "out.csv"},
			{"-csv", "out.csv", "-run", "LAX,IPV6,high"},
			{"-faults", "hang=0.1"},
			{"-faults", "hang=0.1", "-experiment", "figure3"},
			{"-faults", "hang=0.1", "-run", "LAX,IPV6,high", "-gpus", "2"},
			{"-metrics", "m.prom"},
			{"-perfetto", "t.json"},
			{"-probe"},
			{"-metrics", "m.prom", "-run", "LAX,IPV6,high", "-gpus", "2"},
			{"-perfetto", "t.json", "-run", "LAX,IPV6,high", "-gpus", "2"},
		}
		for _, args := range bad {
			if out, err := run(t, bin, args...); err == nil {
				t.Errorf("contradictory flags %v accepted:\n%s", args, out)
			}
		}
	})
}

func TestCLIFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildCLI(t)
	out, err := run(t, bin, "-run", "LAX,IPV6,high", "-jobs", "24", "-gpus", "2")
	if err != nil {
		t.Fatal(err, out)
	}
	if !strings.Contains(out, "over 2 GPUs") || !strings.Contains(out, "gpu1:") {
		t.Errorf("fleet output wrong:\n%s", out)
	}
}
