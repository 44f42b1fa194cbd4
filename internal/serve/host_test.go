package serve

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// runDone is the completer of the tests' Hosts: each job's key is its own
// done callback.
func runDone(done func(*cp.JobRun, obs.JobEvent), jr *cp.JobRun, e obs.JobEvent) { done(jr, e) }

// hostMetrics digs the scheduler-metrics probe out of the chain NewHost
// built (an obs.Multi slice).
func hostMetrics[K any](t *testing.T, h *Host[K]) *obs.Metrics {
	t.Helper()
	chain := reflect.ValueOf(h.Node().System().Probe())
	if chain.Kind() != reflect.Slice {
		t.Fatalf("host probe chain is a %v, want the obs.Multi slice", chain.Kind())
	}
	for i := 0; i < chain.Len(); i++ {
		if m, ok := chain.Index(i).Interface().(*obs.Metrics); ok {
			return m
		}
	}
	t.Fatal("no *obs.Metrics in the host's probe chain")
	return nil
}

// TestHostMetricsRetainNoEstimatePairs: a daemon's Host feeds the
// estimate-error histograms of its shared registry for as long as it lives,
// so it must not also keep one EstimatePair per kernel and per job forever —
// after N finished jobs the histograms have counted them and the probe
// retains none.
func TestHostMetricsRetainNoEstimatePairs(t *testing.T) {
	const jobs = 200
	clock := NewManualClock()
	reg := obs.NewRegistry()
	h, err := NewHost(NodeConfig{Scheduler: "LAX"}, clock, 0, reg, 0, runDone)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	defer h.Shutdown(time.Second)

	lib := workload.NewLibrary(cp.DefaultSystemConfig().GPU)
	finished := 0
	for i := 0; i < jobs; i++ {
		clock.Set(sim.Time(i) * sim.Millisecond)
		job := sampleJob(t, lib, "LSTM")
		job.Deadline = sim.Second
		if !h.Call(func() {
			h.Submit(job, obs.TraceID{}, func(*cp.JobRun, obs.JobEvent) { finished++ })
		}) {
			t.Fatal("driver refused the submit command")
		}
	}
	clock.Set(sim.Time(jobs) * sim.Second)
	if !h.Call(func() {}) { // the driver advances to the clock before running it
		t.Fatal("driver stopped")
	}
	if finished != jobs {
		t.Fatalf("%d of %d jobs finished", finished, jobs)
	}

	m := hostMetrics(t, h)
	kernelErr := reg.Histogram("laxsim_estimate_kernel_error_us", "", obs.SignedErrorBoundsUs)
	if kernelErr.Count() < jobs {
		t.Fatalf("kernel-error histogram counted %d predictions over %d jobs; the run paired nothing", kernelErr.Count(), jobs)
	}
	if k, c := len(m.KernelPairs()), len(m.ChainPairs()); k != 0 || c != 0 {
		t.Errorf("shared-registry Metrics retains %d kernel and %d chain pairs after %d jobs (histogram count %d); a daemon's memory must not grow with its history",
			k, c, jobs, kernelErr.Count())
	}
}

// TestRecordTableEvictsOldestTerminal: past the cap the table drops the
// oldest record that has an outcome, never one still running — a long job's
// GET /v1/jobs/{id} keeps answering however many submissions follow it.
func TestRecordTableEvictsOldestTerminal(t *testing.T) {
	tbl := newRecordTable(3)
	finish := func(id int64) {
		tbl.finish(id, func(js *JobStatus) { js.State = "done" })
		tbl.settle(id)
	}
	add := func(id int64, terminal bool) {
		tbl.add(id, "LSTM", 0, obs.TraceID{}, "c")
		if terminal {
			finish(id)
		}
	}
	has := func(id int64) bool { _, ok := tbl.get(id); return ok }

	add(0, false) // the running head
	add(1, true)
	add(2, true)
	add(3, false) // over the cap: 1 is the oldest terminal record
	if !has(0) || has(1) || !has(2) || !has(3) {
		t.Fatalf("after 4 adds at cap 3: have 0:%v 1:%v 2:%v 3:%v, want the running head kept and 1 evicted",
			has(0), has(1), has(2), has(3))
	}
	add(4, false) // 2 goes next; the table now holds only running records
	add(5, false) // nothing terminal to evict: the table runs over its cap
	if !has(0) || has(2) || !has(3) || !has(4) || !has(5) {
		t.Fatalf("running records evicted: have 0:%v 2:%v 3:%v 4:%v 5:%v", has(0), has(2), has(3), has(4), has(5))
	}
	// Once the head finishes it is the oldest terminal record.
	finish(0)
	add(6, false)
	if has(0) || tbl.retained != 4 {
		t.Fatalf("finished head not evicted: has(0)=%v retained=%d", has(0), tbl.retained)
	}
}

// TestRecordRowIsPointerFree keeps a record row something the collector
// never marks: no field may hold a pointer, and a row stays within 40 bytes
// (36 today), so a page of 1 024 rows is one no-scan object of at most
// 40 KiB.
func TestRecordRowIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int64, reflect.Uint32, reflect.Uint8:
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		default:
			t.Errorf("record row field %s is a %v; a row holds no pointers and no strings", path, typ.Kind())
		}
	}
	typ := reflect.TypeOf(row{})
	for i := 0; i < typ.NumField(); i++ {
		walk(typ.Field(i).Name, typ.Field(i).Type)
	}
	if size := unsafe.Sizeof(row{}); size > 40 {
		t.Errorf("a record row is %d B, want at most 40", size)
	}
}
