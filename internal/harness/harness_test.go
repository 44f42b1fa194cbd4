package harness

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"laxgpu/internal/metrics"
	"laxgpu/internal/workload"
)

// smallRunner keeps shape tests fast: 48 jobs still produces contention at
// the high rate.
func smallRunner() *Runner {
	r := NewRunner()
	r.JobCount = 48
	return r
}

func TestRunnerMemoizesRuns(t *testing.T) {
	r := smallRunner()
	a, err := r.Run("RR", "IPV6", workload.HighRate)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("RR", "IPV6", workload.HighRate)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoized run differs")
	}
}

func TestRunnerSharesTracesAcrossSchedulers(t *testing.T) {
	r := smallRunner()
	s1, err := r.JobSet("CUCKOO", workload.HighRate)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.JobSet("CUCKOO", workload.HighRate)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("job set regenerated for same cell")
	}
	s3, err := r.JobSet("CUCKOO", workload.LowRate)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("different rates share a job set")
	}
}

func TestRunnerErrors(t *testing.T) {
	r := smallRunner()
	if _, err := r.Run("NOPE", "IPV6", workload.HighRate); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := r.Run("RR", "NOPE", workload.HighRate); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, _, err := r.RunSystem(context.Background(), "RR", "NOPE", workload.HighRate); err == nil {
		t.Fatal("RunSystem with unknown benchmark accepted")
	}
}

func TestRunnerProgressLogging(t *testing.T) {
	r := smallRunner()
	var buf bytes.Buffer
	r.Progress = &buf
	if _, err := r.Run("RR", "STEM", workload.LowRate); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "RR") || !strings.Contains(buf.String(), "STEM") {
		t.Fatalf("progress log missing run info: %q", buf.String())
	}
}

// The paper's Figure 3 contract: LAX saves all three primary jobs, RR loses
// at least the long one.
func TestFigure3Shape(t *testing.T) {
	res := RunFigure3(context.Background(), NewRunner())
	if res.LAXMet != 3 {
		t.Fatalf("LAX met %d/3 primary jobs, want 3", res.LAXMet)
	}
	if res.RRMet >= 3 {
		t.Fatalf("RR met %d/3 primary jobs; the worked example requires a miss", res.RRMet)
	}
	// Specifically the long job J3 is the one RR loses.
	if res.RR[2].MetDeadline() {
		t.Fatal("RR met J3's deadline; the example should show it missing")
	}
	if !res.LAX[2].MetDeadline() {
		t.Fatal("LAX missed J3's deadline")
	}
}

func TestFigure3ReportRenders(t *testing.T) {
	rep := Figure3(context.Background(), NewRunner())
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure3", "RR finish", "LAX met", "MISS"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestTable1ReportCalibration(t *testing.T) {
	rep := Table1(context.Background(), NewRunner())
	if len(rep.Tables) != 1 {
		t.Fatal("Table1 should have one table")
	}
	tbl := rep.Tables[0]
	if len(tbl.Rows) != len(workload.Table1Reference()) {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), len(workload.Table1Reference()))
	}
	// Every row's calibration error column must parse as small (|err|<2%).
	for _, row := range tbl.Rows {
		errCol := row[len(row)-1]
		if strings.HasPrefix(errCol, "-") {
			errCol = errCol[1:]
		}
		if errCol > "2" && !strings.HasPrefix(errCol, "0") && !strings.HasPrefix(errCol, "1") && !strings.HasPrefix(errCol, "2.00") {
			t.Errorf("calibration error %s%% for %s exceeds 2%%", row[len(row)-1], row[0])
		}
	}
}

func TestFigure1Characterization(t *testing.T) {
	rep := Figure1(context.Background(), smallRunner())
	tbl := rep.Tables[0]
	if len(tbl.Rows) != 8 {
		t.Fatalf("%d rows, want 8 benchmarks", len(tbl.Rows))
	}
	classes := map[string]string{}
	for _, row := range tbl.Rows {
		classes[row[0]] = row[1]
	}
	if classes["LSTM"] != "many-kernel" || classes["IPV6"] != "few-kernel" {
		t.Fatalf("classification wrong: %v", classes)
	}
}

func TestBatchJobSetGrouping(t *testing.T) {
	r := smallRunner()
	set, err := r.JobSet("STEM", workload.MediumRate)
	if err != nil {
		t.Fatal(err)
	}
	batched, members := BatchJobSet(set, 8)
	if batched.Len() != (set.Len()+7)/8 {
		t.Fatalf("batched length %d, want %d", batched.Len(), (set.Len()+7)/8)
	}
	totalMembers := 0
	for i, arrivals := range members {
		totalMembers += len(arrivals)
		// Batch launches when its last member arrives.
		for _, a := range arrivals {
			if a > int64(batched.Jobs[i].Arrival) {
				t.Fatalf("batch %d launches before member arrival", i)
			}
		}
		// Batched kernels carry the group's combined WGs.
		base := set.Jobs[0].Kernels[0].NumWGs
		if got := batched.Jobs[i].Kernels[0].NumWGs; got != base*len(arrivals) {
			t.Fatalf("batch %d has %d WGs, want %d", i, got, base*len(arrivals))
		}
	}
	if totalMembers != set.Len() {
		t.Fatalf("members cover %d jobs, want %d", totalMembers, set.Len())
	}
	// Batch size 1 passes through untouched.
	same, m1 := BatchJobSet(set, 1)
	if same != set || len(m1) != set.Len() {
		t.Fatal("batch=1 must be the identity")
	}
}

func TestBatchingIncreasesResponseTime(t *testing.T) {
	r := smallRunner()
	set, err := r.JobSet("STEM", workload.MediumRate)
	if err != nil {
		t.Fatal(err)
	}
	single, err := batchResponse(context.Background(), r, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := batchResponse(context.Background(), r, set, 16)
	if err != nil {
		t.Fatal(err)
	}
	if big <= single {
		t.Fatalf("batch=16 response %.0f <= batch=1 response %.0f; batching must add waiting",
			big, single)
	}
}

// The headline shape at reduced scale, using the paper's metric: the
// geometric mean over benchmarks of deadline-met counts normalized to RR.
// LAX must clearly beat the RR baseline and the deadline-blind field.
func TestLAXLeadsAtHighRate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheduler sweep")
	}
	r := smallRunner()
	geomeanVsRR := func(s string) float64 {
		var ratios []float64
		for _, b := range workload.BenchmarkNames() {
			rr := float64(r.MustRun("RR", b, workload.HighRate).MetDeadline)
			met := float64(r.MustRun(s, b, workload.HighRate).MetDeadline)
			ratios = append(ratios, metrics.Ratio(met, rr))
		}
		return metrics.Geomean(ratios)
	}
	lax := geomeanVsRR("LAX")
	mlfq := geomeanVsRR("MLFQ")
	t.Logf("geomean vs RR: LAX=%.2f MLFQ=%.2f", lax, mlfq)
	if lax < 1.5 {
		t.Fatalf("LAX geomean vs RR = %.2f, want a clear win (paper: 1.7x-5.0x)", lax)
	}
	if lax <= mlfq {
		t.Fatalf("LAX (%.2f) did not beat MLFQ (%.2f)", lax, mlfq)
	}
}

func TestFigure10TraceQuality(t *testing.T) {
	r := NewRunner() // needs the full 128-job trace (sampled job is #64)
	tr, err := RunFigure10(context.Background(), r, "LSTM")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) == 0 {
		t.Skip("sample job rejected in this trace")
	}
	if tr.MeanAbsErrPct <= 0 || tr.MeanAbsErrPct > 60 {
		t.Fatalf("prediction MAE %.1f%% implausible (paper: 8%%)", tr.MeanAbsErrPct)
	}
	for i := 1; i < len(tr.Points); i++ {
		if tr.Points[i].DurTime <= tr.Points[i-1].DurTime {
			t.Fatal("trace durTime not increasing")
		}
	}
}

func TestRunExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 17 {
		t.Fatalf("%d experiments, want 17", len(ids))
	}
	for _, e := range experiments {
		if e.run == nil {
			t.Errorf("experiment %s has no generator", e.id)
		}
	}
	if _, err := RunExperiment(context.Background(), NewRunner(), "figure0"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "t",
		Header: []string{"a", "long-header", "c"},
	}
	tbl.AddRow("1", "2", "3")
	tbl.AddRow("wide-cell", "x", "y")
	var buf bytes.Buffer
	tbl.Render(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), buf.String())
	}
	// Columns align: the second column starts at the same offset everywhere.
	idx := strings.Index(lines[1], "long-header")
	if strings.Index(lines[3], "2") != idx {
		t.Errorf("columns misaligned:\n%s", buf.String())
	}
}

func TestDeadlineCountsConsistency(t *testing.T) {
	r := smallRunner()
	counts := DeadlineCounts(r, []string{"RR"}, workload.LowRate)
	sum := 0
	for _, b := range workload.BenchmarkNames() {
		sum += r.MustRun("RR", b, workload.LowRate).MetDeadline
	}
	if counts["RR"] != sum {
		t.Fatalf("DeadlineCounts %d != manual sum %d", counts["RR"], sum)
	}
}

func TestSummaryInvariants(t *testing.T) {
	r := smallRunner()
	for _, s := range []string{"RR", "LAX", "BAY"} {
		sum, err := r.Run(s, "CUCKOO", workload.HighRate)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Completed+sum.Rejected+sum.Cancelled != sum.TotalJobs {
			t.Errorf("%s: completed %d + rejected %d + cancelled %d != total %d",
				s, sum.Completed, sum.Rejected, sum.Cancelled, sum.TotalJobs)
		}
		if sum.MetDeadline > sum.Completed {
			t.Errorf("%s: met > completed", s)
		}
		if sum.UsefulWorkFrac < 0 || sum.UsefulWorkFrac > 1 {
			t.Errorf("%s: useful frac %v", s, sum.UsefulWorkFrac)
		}
		if f := metrics.Ratio(float64(sum.MetDeadline), float64(sum.TotalJobs)); f != sum.DeadlineFrac() {
			t.Errorf("%s: deadline frac mismatch", s)
		}
	}
}

func TestSweepMatchesSerialRuns(t *testing.T) {
	serial := smallRunner()
	parallel := smallRunner()
	parallel.Workers = 4
	cells := GridCells([]string{"RR", "LAX"}, workload.LowRate)
	if err := parallel.Sweep(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		a, err := serial.Run(c.Sched, c.Bench, c.Rate)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.Run(c.Sched, c.Bench, c.Rate)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%v: parallel result differs from serial", c)
		}
	}
	// Sweeping an unknown cell errors.
	if err := parallel.Sweep(context.Background(), []Cell{{"NOPE", "LSTM", workload.LowRate}}); err == nil {
		t.Fatal("unknown scheduler swept")
	}
	if err := parallel.Sweep(context.Background(), []Cell{{"RR", "NOPE", workload.LowRate}}); err == nil {
		t.Fatal("unknown benchmark swept")
	}
}

func TestMultiSeedStats(t *testing.T) {
	r := smallRunner()
	st, err := MultiSeed(context.Background(), r, "RR", "STEM", workload.HighRate, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Mets) != 3 {
		t.Fatalf("%d seed results", len(st.Mets))
	}
	if st.MetMean <= 0 {
		t.Fatalf("mean %v", st.MetMean)
	}
	if st.MetStd < 0 {
		t.Fatalf("stdev %v", st.MetStd)
	}
	// Different seeds should (almost surely) differ somewhere; equal seeds
	// must not.
	same, err := MultiSeed(context.Background(), r, "RR", "STEM", workload.HighRate, []int64{7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if same.MetStd != 0 {
		t.Fatalf("identical seeds produced variance %v", same.MetStd)
	}
	if same.RelStd() != 0 {
		t.Fatal("RelStd of zero-variance sample")
	}
	if (SeedStats{}).RelStd() != 0 {
		t.Fatal("RelStd of empty stats")
	}
}

func TestRenderMarkdown(t *testing.T) {
	rep := Figure3(context.Background(), NewRunner())
	var buf bytes.Buffer
	rep.RenderMarkdown(&buf)
	out := buf.String()
	if !strings.HasPrefix(out, "## Figure3:") {
		t.Fatalf("markdown header wrong:\n%s", out)
	}
	if !strings.Contains(out, "| Job ") || !strings.Contains(out, "| --- |") {
		t.Fatalf("markdown table structure missing:\n%s", out)
	}
	if !strings.Contains(out, "> RR is deadline-blind") {
		t.Fatalf("markdown notes missing:\n%s", out)
	}
	// Pipes in cells must be escaped.
	tbl := &Table{Header: []string{"a|b"}}
	tbl.AddRow("x|y")
	buf.Reset()
	tbl.RenderMarkdown(&buf)
	if !strings.Contains(buf.String(), `a\|b`) || !strings.Contains(buf.String(), `x\|y`) {
		t.Fatalf("pipe escaping missing:\n%s", buf.String())
	}
}

// Golden regression tests: every report must match its checked-in rendering
// byte for byte, with the invariant checker attached to every simulation
// behind it (as `laxsim -verify` does, one runner shared across experiments).
// A diff means model behavior changed — rerun `go run ./cmd/laxsim
// -experiment <id> > internal/harness/testdata/<id>.golden` deliberately
// after verifying the change in EXPERIMENTS.md. -short keeps the two reports
// that cost milliseconds.
func TestGoldenReports(t *testing.T) {
	ids := ExperimentIDs()
	if testing.Short() {
		ids = []string{"table1", "figure3"}
	}
	r := NewRunner()
	r.Verify = true
	for _, id := range ids {
		rep, err := RunExperiment(context.Background(), r, id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		want, err := os.ReadFile("testdata/" + id + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if buf.String() != string(want) {
			t.Errorf("%s report drifted from golden file;\n--- got ---\n%s\n--- want ---\n%s",
				id, buf.String(), want)
		}
	}
}

// TestAllExperimentsSmoke runs every registered experiment at reduced scale
// and checks structural validity — the cheap guarantee that `laxsim` cannot
// crash on any ID and every report carries data.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	r := NewRunner()
	r.JobCount = 24
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := RunExperiment(context.Background(), r, id)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID == "" || rep.Title == "" {
				t.Fatal("report missing identity")
			}
			if len(rep.Tables) == 0 {
				t.Fatal("report has no tables")
			}
			for ti, tbl := range rep.Tables {
				if len(tbl.Header) == 0 {
					t.Fatalf("table %d has no header", ti)
				}
				if len(tbl.Rows) == 0 {
					t.Fatalf("table %d has no rows", ti)
				}
				for ri, row := range tbl.Rows {
					if len(row) > len(tbl.Header) {
						t.Fatalf("table %d row %d wider than header", ti, ri)
					}
				}
			}
			var text, md bytes.Buffer
			rep.Render(&text)
			rep.RenderMarkdown(&md)
			if text.Len() == 0 || md.Len() == 0 {
				t.Fatal("render produced nothing")
			}
		})
	}
}
