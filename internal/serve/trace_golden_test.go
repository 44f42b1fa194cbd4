package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// traceMix is the node trace script's job mix, cycled by submission index:
// multi-kernel LSTM chains beside single-kernel jobs, and LSTM chains whose
// deadlines are too tight for Algorithm 1 once the node is loaded.
var traceMix = []struct {
	bench    string
	deadline sim.Time
}{
	{"LSTM", 7 * sim.Millisecond},
	{"STEM", 300 * sim.Microsecond},
	{"GMM", 3 * sim.Millisecond},
	{"LSTM", 900 * sim.Microsecond},
	{"CUCKOO", 600 * sim.Microsecond},
	{"STEM", 120 * sim.Microsecond},
}

// nodeTraceDump is one read of the node's trace ring: every submitted job's
// Trace (absent when untraced, or once evicted), then RecentTraces in full,
// each as the TraceDoc the daemon serves.
type nodeTraceDump struct {
	At     sim.Time
	Traces []jobTraceDump
	Recent []obs.TraceDoc
}

type jobTraceDump struct {
	Job int
	Doc *obs.TraceDoc `json:",omitempty"`
}

func traceDoc(t obs.JobTrace) obs.TraceDoc {
	wire := t.Wire("node-a")
	return obs.TraceDoc{Trace: wire, Attribution: obs.Attribute(wire)}
}

func traceDocs(ts []obs.JobTrace) []obs.TraceDoc {
	docs := make([]obs.TraceDoc, 0, len(ts))
	for _, t := range ts {
		docs = append(docs, traceDoc(t))
	}
	return docs
}

// runNodeTraceScript drives one LAX-PREMA Host on a manual clock: jobs from
// traceMix every gap, a burst of three every tenth slot, every seventh job
// untraced, and all eight CUs retired at retireAt, so the jobs then on the
// device hang until the watchdog falls them back to the CPU. LAX-PREMA drops
// jobs that run past their deadline, and the tight LSTM chains are rejected
// with their Algorithm 1 terms. The ring is read (dumped to out) at each of
// the reads instants, which the caller chooses to land with jobs still live,
// and once more a second after the last submission.
func runNodeTraceScript(t *testing.T, depth, jobs int, gap sim.Time, fault string, reads []int, out io.Writer, indent bool) map[string]int {
	t.Helper()
	spec, err := faults.ParseSpec(fault)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewManualClock()
	h, err := NewHost(NodeConfig{Scheduler: "LAX-PREMA", Faults: spec, Seed: 3}, clock, 0, nil, depth, runDone)
	if err != nil {
		t.Fatal(err)
	}
	lib := workload.NewLibrary(cp.DefaultSystemConfig().GPU)
	rng := sim.NewRNG(11)
	enc := json.NewEncoder(out)
	if indent {
		enc.SetIndent("", " ")
	}
	traceIDs := make([]string, 0, jobs)
	outcomes := map[string]int{}
	read := func() {
		d := nodeTraceDump{At: clock.Now()}
		for id, tid := range traceIDs {
			jd := jobTraceDump{Job: id}
			if tr, ok := h.Trace(tid); tid != "" && ok {
				doc := traceDoc(tr)
				jd.Doc = &doc
				if tr.State == "running" {
					outcomes["live at a read"]++
				}
			}
			d.Traces = append(d.Traces, jd)
		}
		recent := h.RecentTraces(0)
		d.Recent = traceDocs(recent)
		if newest := h.RecentTraces(3); len(recent) >= 3 && !reflect.DeepEqual(newest, recent[:3]) {
			t.Fatalf("RecentTraces(3) = %+v, want the newest three of RecentTraces(0)", newest)
		}
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(i int) {
		m := traceMix[i%len(traceMix)]
		b, err := workload.FindBenchmark(m.bench)
		if err != nil {
			t.Fatal(err)
		}
		job := b.Sample(lib, rng, 0, 0)
		job.Deadline = m.deadline
		var tid obs.TraceID
		if i%7 != 3 {
			tid = obs.TraceIDFrom(5, uint64(i))
		}
		traceIDs = append(traceIDs, tid.String())
		jr, _ := h.Submit(job, tid, func(jr *cp.JobRun, e obs.JobEvent) {
			switch {
			case e.Kind == obs.JobCancel:
				outcomes["cancelled"]++
			case jr.FellBack:
				outcomes["fallback"]++
			default:
				outcomes["done"]++
			}
		})
		if jr.Rejected() {
			outcomes["rejected"]++
		}
	}
	next := 0
	for slot := 0; next < jobs; slot++ {
		clock.Set(sim.Time(slot) * gap)
		burst := 1
		if slot%10 == 9 {
			burst = 3
		}
		if !h.Call(func() {
			for k := 0; k < burst && next < jobs; k++ {
				submit(next)
				next++
			}
			if len(reads) > 0 && next >= reads[0] {
				reads = reads[1:]
				read()
			}
		}) {
			t.Fatal("driver refused the submit command")
		}
	}
	clock.Advance(sim.Second)
	if !h.Call(read) {
		t.Fatal("driver refused the final read")
	}
	return outcomes
}

// TestNodeTraceGolden pins everything a node's trace ring answers — each
// job's Trace, RecentTraces, and their wire form and slack attribution —
// across a LAX-PREMA run with admission rejects, cancellations, a CU
// retirement that forces CPU fallbacks, and reads taken while jobs are live.
// The small run is stored readable; the one past the default ring depth as
// its sha256.
func TestNodeTraceGolden(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		var out bytes.Buffer
		got := runNodeTraceScript(t, 6, 40, 1500*sim.Microsecond, "hang=0.3,retire=4@20ms", []int{8, 17, 30}, &out, true)
		requireOutcomes(t, got)
		compareTraceGolden(t, "node_trace_small.golden.json", out.Bytes())
	})
	t.Run("past-the-depth", func(t *testing.T) {
		h := sha256.New()
		got := runNodeTraceScript(t, 0, 1500, 300*sim.Microsecond, "hang=0.2,retire=4@300ms", []int{400, 1100, 1300}, h, false)
		requireOutcomes(t, got)
		compareTraceGolden(t, "node_trace_past_depth.golden.sha256", fmt.Appendf(nil, "%x\n", h.Sum(nil)))
	})
}

// requireOutcomes fails the script if it lost one of the paths it pins.
func requireOutcomes(t *testing.T, got map[string]int) {
	t.Helper()
	for _, k := range []string{"done", "rejected", "cancelled", "fallback", "live at a read"} {
		if got[k] == 0 {
			t.Fatalf("outcomes %v: no %s job; the script lost its teeth", got, k)
		}
	}
}

func compareTraceGolden(t *testing.T, name string, got []byte) {
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
		t.Errorf("%s drifted from the golden (%s bytes now)", name, strconv.Itoa(len(got)))
	}
}
