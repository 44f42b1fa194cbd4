package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from this tree's output")

// kernelEvent is one kernel start or completion. For a start, T is the
// policy's prediction; for a completion, the start the probe reports.
type kernelEvent struct {
	Start    bool
	Job, Seq int
	At, T    sim.Time
}

// kernelEvents records every kernel start and completion of a run, in the
// order the simulation emitted them.
type kernelEvents []kernelEvent

func (*kernelEvents) Job(obs.JobEvent)                {}
func (*kernelEvents) Admission(obs.AdmissionDecision) {}
func (*kernelEvents) Epoch(obs.EpochSnapshot)         {}
func (*kernelEvents) Sample(obs.JobSample)            {}
func (*kernelEvents) TableRefresh(obs.TableRefresh)   {}
func (k *kernelEvents) KernelStart(e obs.KernelStart) {
	*k = append(*k, kernelEvent{Start: true, Job: e.Job, Seq: e.Seq, At: e.At, T: e.Predicted})
}
func (k *kernelEvents) KernelDone(e obs.KernelDone) {
	*k = append(*k, kernelEvent{Job: e.Job, Seq: e.Seq, At: e.At, T: e.Start})
}

// timeline renders the events one per line.
func (k kernelEvents) timeline() []byte {
	var b bytes.Buffer
	for _, e := range k {
		kind := 'D'
		if e.Start {
			kind = 'S'
		}
		fmt.Fprintf(&b, "%c j%d k%d %d %d\n", kind, e.Job, e.Seq, e.At, e.T)
	}
	return b.Bytes()
}

// timelineSchedulers is the sim-sweep scheduler axis: Table 5's columns and
// the two other laxity implementations.
func timelineSchedulers() []string {
	return append(append([]string(nil), sched.Table5Schedulers...), "LAX-SW", "LAX-CPU")
}

// timelineFaults is the faulted run's spec: hangs the watchdog must kill,
// aborts, slow attempts, and CU retirements that shrink the device mid-run.
// Kernels that fail past the retry budget fall back to the CPU.
const timelineFaults = "hang=0.15,abort=0.1,slow=0.1x3,retire=2@2ms,retire=2@6ms"

// timelineUnrecovered injects hangs and aborts with recovery off.
const timelineUnrecovered = "hang=0.15,abort=0.1,recover=off"

// TestKernelTimelineGolden pins when every kernel of every job starts and
// completes, and what the policy predicted at its start, across the 13
// sweep schedulers × 8 benchmarks at 32 jobs, plus faulted LSTM runs — fault
// injection, watchdog retries, CPU fallback and CU retirement — under LAX,
// the pausing PREMA and PRO, and the gated, host-launched BAT; hangs and
// aborts with recovery off under LAX and PREMA; and a fault-free LAX run
// under an armed watchdog. Every run is checked by the invariant checker. The
// golden stores one sha256 per run of its timeline, so a drift names the cell
// that moved.
func TestKernelTimelineGolden(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	cfg := cp.DefaultSystemConfig()
	var golden bytes.Buffer
	run := func(name string, s Sim) *cp.System {
		t.Helper()
		ev := &kernelEvents{}
		s.Probes = []obs.Probe{ev}
		s.Verify = true
		sys, _, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&golden, "%s %d events %x\n", name, len(*ev), sha256.Sum256(ev.timeline()))
		return sys
	}
	for _, s := range timelineSchedulers() {
		for _, b := range workload.Benchmarks() {
			set := b.Generate(lib, workload.HighRate, 32, 1)
			run(s+"/"+b.Name, Sim{Sched: s, Cfg: cfg, Set: set})
		}
	}
	lstm, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	faulted := cfg
	faulted.Recover = true
	var rec cp.RecoveryStats
	for _, s := range []string{"LAX", "PREMA", "PRO", "BAT"} {
		sys := run(s+"/LSTM/faulted", Sim{
			Sched: s, Cfg: faulted, Set: lstm.Generate(lib, workload.HighRate, 64, 1),
			Faults: timelineFaults, FaultSeed: 7,
		})
		r := sys.Recovery()
		rec.WatchdogKills += r.WatchdogKills
		rec.Aborts += r.Aborts
		rec.Retries += r.Retries
		rec.Fallbacks += r.Fallbacks
		rec.RetiredCUs += r.RetiredCUs
		t.Logf("%s: %+v", s, r)
	}
	if rec.WatchdogKills == 0 || rec.Aborts == 0 || rec.Retries == 0 || rec.Fallbacks == 0 || rec.RetiredCUs == 0 {
		t.Fatalf("faulted runs lost a recovery path: %+v", rec)
	}
	// Recovery off: hangs strand their jobs until the fault horizon and
	// aborts cancel theirs, so the device keeps hung WGs to the end.
	for _, s := range []string{"LAX", "PREMA"} {
		sys := run(s+"/LSTM/unrecovered", Sim{
			Sched: s, Cfg: cfg, Set: lstm.Generate(lib, workload.HighRate, 64, 1),
			Faults: timelineUnrecovered, FaultSeed: 7,
		})
		stranded, cancelled := 0, 0
		for _, jr := range sys.Jobs() {
			switch {
			case jr.Cancelled():
				cancelled++
			case !jr.Done() && !jr.Rejected():
				stranded++
			}
		}
		if stranded == 0 || cancelled == 0 {
			t.Fatalf("%s unrecovered: %d stranded, %d cancelled jobs; want both", s, stranded, cancelled)
		}
	}
	// A healthy device under an armed watchdog: every timeout finds progress.
	sys := run("LAX/LSTM/watchdog", Sim{Sched: "LAX", Cfg: faulted, Set: lstm.Generate(lib, workload.HighRate, 32, 1)})
	if r := sys.Recovery(); r != (cp.RecoveryStats{}) {
		t.Fatalf("fault-free watchdog run recovered something: %+v", r)
	}
	compareTimelineGolden(t, "kernel_timeline.golden.sha256", golden.Bytes())
}

func compareTimelineGolden(t *testing.T, name string, got []byte) {
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
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("%s drifted; first differing run:\n got  %s\n want %s", name, gl[i], wl[i])
				return
			}
		}
		t.Errorf("%s drifted: %d runs now, golden has %d", name, len(gl), len(wl))
	}
}
