package obs_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"laxgpu"
	"laxgpu/examples/scenarios"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from this tree's output")

// TestPerfettoGolden pins the Perfetto export byte for byte. The golden
// stores one sha256 per document, so a drift names the document that moved:
//   - the five committed scenarios under LAX, EDF, PREMA, RR and LAX-SW,
//     each run with Verify, Probe and Metrics on beside the export;
//   - three faulted 64-job cells (hangs, aborts and slowdowns, seed 3);
//   - an export-time document: fleet events and two stitched job traces,
//     one holding a zero-length span;
//   - a recorder that saw nothing;
//   - hand-fed probe events with global-scope (queue -1) instants and a
//     zero-length kernel span.
func TestPerfettoGolden(t *testing.T) {
	var golden bytes.Buffer
	sum := func(name string, p *obs.Perfetto, doc []byte) {
		fmt.Fprintf(&golden, "%s %d events %d bytes %x\n", name, p.Events(), len(doc), sha256.Sum256(doc))
	}
	write := func(name string, p *obs.Perfetto) {
		t.Helper()
		var doc bytes.Buffer
		if err := p.Write(&doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum(name, p, doc.Bytes())
	}
	run := func(name string, o laxgpu.Options) {
		t.Helper()
		var doc bytes.Buffer
		o.Verify, o.Probe, o.Metrics, o.Perfetto = true, true, io.Discard, &doc
		if _, err := laxgpu.Run(context.Background(), o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&golden, "%s %d bytes %x\n", name, doc.Len(), sha256.Sum256(doc.Bytes()))
	}

	for _, sc := range []string{"steady", "diurnal", "burst-storm", "heavy-tail", "three-tenant"} {
		raw, err := scenarios.FS.ReadFile(sc + ".json")
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []string{"LAX", "EDF", "PREMA", "RR", "LAX-SW"} {
			run(sc+"/"+sched, laxgpu.Options{Scheduler: sched, Scenario: bytes.NewReader(raw)})
		}
	}
	for _, bench := range []string{"LSTM", "STEM", "IPV6"} {
		run("LAX/"+bench+"/faulted", laxgpu.Options{Scheduler: "LAX", Benchmark: bench, Jobs: 64, Seed: 3,
			Faults: "hang=0.1,abort=0.1,slow=0.1"})
	}

	export := obs.NewPerfetto()
	export.AddFleetEvents([]obs.FleetEvent{
		{AtUs: 12.5, Name: "breaker", Node: "node-a", Detail: "closed->open"},
		{AtUs: 40, Name: "redispatch", Node: "node-b", Detail: "job 7 from node-a"},
		{AtUs: 41.25, Name: "fallback", Node: "node-a"},
	})
	export.AddWireTrace(obs.WireTrace{Job: "7", Benchmark: "LSTM", Spans: []obs.WireSpan{
		{Kind: "phase", Name: "admit", Node: "gw", StartUs: 0, EndUs: 3.5},
		{Kind: "event", Name: "redispatch", Node: "gw", StartUs: 3.5, EndUs: 3.5, Detail: "from node-a"},
		{Kind: "kernel", Name: "gemm", Node: "node-b", StartUs: 4, EndUs: 120.125, Detail: "seq 0"},
	}})
	export.AddWireTrace(obs.WireTrace{Job: "8", Benchmark: "STEM", Spans: []obs.WireSpan{
		{Kind: "phase", Name: "exec", Node: "node-a", StartUs: 1, EndUs: 2},
	}})
	write("export", export)

	write("empty", obs.NewPerfetto())

	global := obs.NewPerfetto()
	global.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Queue: -1, Deadline: sim.Millisecond})
	global.Admission(obs.AdmissionDecision{At: 0, Job: 0, HasTerms: true,
		QueueDelay: 900 * sim.Microsecond, HoldTime: 200 * sim.Microsecond, Deadline: sim.Millisecond})
	global.Job(obs.JobEvent{At: 0, Kind: obs.JobReject, Job: 0, Queue: -1})
	global.Job(obs.JobEvent{At: 5, Kind: obs.JobArrive, Job: 1, Queue: -1, Deadline: 2 * sim.Millisecond})
	global.KernelStart(obs.KernelStart{At: 7, Job: 1, Queue: 0, Kernel: "gemm"})
	global.KernelDone(obs.KernelDone{At: 7, Job: 1, Queue: 0, Kernel: "gemm", Start: 7})
	global.Job(obs.JobEvent{At: 9, Kind: obs.JobCancel, Job: 1, Queue: -1})
	write("global", global)

	compareGolden(t, "perfetto.golden.sha256", golden.Bytes())
}

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
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Errorf("%s drifted; first differing document:\n got  %s\n want %s", name, gl[i], wl[i])
				return
			}
		}
		t.Errorf("%s drifted: %d documents now, golden has %d", name, len(gl), len(wl))
	}
}
