package gateway

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// update rewrites the goldens from this tree's output. They were generated at
// the commit before the package was split, so a diff means behaviour moved.
var update = flag.Bool("update", false, "rewrite testdata goldens from this tree's output")

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden;\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenJournals pins the chaos scenarios' final journals — IDs,
// verdicts, terminal states, dispatch chains, duplicates and gateway spans —
// and retired-node ledgers byte-for-byte.
func TestGoldenJournals(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(*testing.T) ([]verify.FleetJob, []string)
	}{
		{"crash", crashScenario},
		{"freeze", freezeScenario},
		{"scale_churn", scaleChurnScenario},
	} {
		jobs, drained := sc.run(t)
		got, err := json.MarshalIndent(struct {
			Jobs    []verify.FleetJob
			Drained []string
		}{jobs, drained}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, sc.name+"_journal.golden.json", append(got, '\n'))
	}
}

// TestGoldenMetricsExposition pins laxgw's /metrics body after a manual-clock
// script that takes every arrival verdict (accept, admission reject, shed),
// one crash failover and one graceful drain. The re-dispatch histogram times
// wall-clock work, so its bucket and sum values are masked; its count is not.
func TestGoldenMetricsExposition(t *testing.T) {
	gw, clock := fleet(t, 3, ";crash@5ms", 42, 1)
	gw.TickProbes(0)
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, gw, 12, sim.Second)
	gw.TickProbes(0) // fold the backlog into the headroom view
	if _, _, reason := gw.Submit(bench, sim.Microsecond, BestEffort); reason != serve.ReasonShed {
		t.Fatalf("best-effort job behind a backlog: reason %q, want shed", reason)
	}
	if left, err := gw.DrainBackend(2); err != nil || left == 0 {
		t.Fatalf("drain of busy node2: left=%d err=%v", left, err)
	}
	clock.Set(6 * sim.Millisecond)
	gw.TickProbes(6 * sim.Millisecond) // node1 is dead: breaker opens, failover runs
	clock.Set(10 * sim.Second)
	gw.TickProbes(10 * sim.Second)
	if n := gw.Inflight(); n != 0 {
		t.Fatalf("%d jobs in flight at quiescence", n)
	}
	if got := gw.DrainedNodes(); len(got) != 1 || got[0] != "node2" {
		t.Fatalf("DrainedNodes = %v, want [node2]", got)
	}
	// Idle fleet, warm profiling tables, hopeless deadline: shedding lets it
	// through (no backlog to compare against) and Algorithm 1 refuses it.
	if _, _, reason := gw.Submit(bench, sim.Microsecond, Critical); reason != serve.ReasonAdmission {
		t.Fatalf("hopeless deadline on an idle fleet: reason %q, want admission", reason)
	}
	if st := gw.Stats(); st.Shed != 1 || st.Rejected != 1 || gw.cFailoverJobs.Value() == 0 {
		t.Fatalf("script lost its teeth: stats %+v, failover jobs %d", st, gw.cFailoverJobs.Value())
	}

	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	lines := strings.SplitAfter(rec.Body.String(), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "laxgw_redispatch_latency_us_bucket") || strings.HasPrefix(l, "laxgw_redispatch_latency_us_sum") {
			lines[i] = l[:strings.LastIndexByte(l, ' ')] + " <wall>\n"
		}
	}
	compareGolden(t, "metrics.golden.txt", []byte(strings.Join(lines, "")))
}
