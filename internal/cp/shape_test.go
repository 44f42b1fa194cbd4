package cp

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"laxgpu/internal/gpu"
	"laxgpu/internal/workload"
)

// leadsTo reports whether typ is a pointer, slice, array or map whose
// elements, however deeply nested, are target values.
func leadsTo(typ, target reflect.Type) bool {
	for {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			typ = typ.Elem()
			if typ == target {
				return true
			}
		default:
			return false
		}
	}
}

// TestJobRunHoldsOneKernelInstance keeps a job's runtime state at one live
// kernel: JobRun embeds exactly one gpu.KernelInstance, the chain's head,
// and no field holds a slice, array, map or pointer of them — the kernels
// behind the head are the job's descriptors.
func TestJobRunHoldsOneKernelInstance(t *testing.T) {
	inst := reflect.TypeOf(gpu.KernelInstance{})
	typ := reflect.TypeOf(JobRun{})
	held := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type == inst {
			held++
		}
		if leadsTo(f.Type, inst) {
			t.Errorf("JobRun.%s is a %v; a job holds one kernel instance, not a collection of them", f.Name, f.Type)
		}
	}
	if held != 1 {
		t.Errorf("JobRun holds %d kernel instances by value, want exactly 1 (the head)", held)
	}
}

// TestJobRunSlabFitsSizeClass keeps JobRun at 256 bytes or less, so the slab
// NewSystem builds for a 128-job trace stays one 32 KB object: a few more
// bytes per run put it in the next size class and add kilobytes per trace.
func TestJobRunSlabFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(JobRun{}); size > 256 {
		t.Errorf("JobRun is %d B; a 128-job slab no longer fits 32 KB", size)
	}
}

// TestNewSystemAllocsIndependentOfChainLength: building a system costs the
// same for 128 LSTM jobs — long kernel chains — as for 128 single-kernel GMM
// jobs, in allocations and in bytes, because a job holds one live kernel
// instance whatever its chain length.
func TestNewSystemAllocsIndependentOfChainLength(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	type cost struct {
		kernels int
		allocs  float64
		bytes   uint64
	}
	measure := func(bench string) cost {
		b, err := workload.FindBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		set := b.Generate(lib, workload.HighRate, 128, 1)
		var c cost
		for _, j := range set.Jobs {
			c.kernels += len(j.Kernels)
		}
		build := func() { NewSystem(DefaultSystemConfig(), set, &fifoPolicy{}) }
		c.allocs = testing.AllocsPerRun(20, build)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			build()
		}
		runtime.ReadMemStats(&after)
		c.bytes = (after.TotalAlloc - before.TotalAlloc) / runs
		return c
	}
	lstm, gmm := measure("LSTM"), measure("GMM")
	t.Logf("LSTM: %d kernels, %v allocs, %d B; GMM: %d kernels, %v allocs, %d B",
		lstm.kernels, lstm.allocs, lstm.bytes, gmm.kernels, gmm.allocs, gmm.bytes)
	if lstm.kernels < 10*gmm.kernels {
		t.Fatalf("LSTM traces %d kernels against GMM's %d: too close to tell chain length apart", lstm.kernels, gmm.kernels)
	}
	if lstm.allocs != gmm.allocs {
		t.Errorf("NewSystem allocates %v times for LSTM, %v for GMM: allocation grows with chain length", lstm.allocs, gmm.allocs)
	}
	// A few hundred bytes of slack absorb the runtime's own allocations
	// during the measurement; one kernel instance per LSTM kernel is
	// megabytes.
	if diff := int64(lstm.bytes) - int64(gmm.bytes); diff > 512 || diff < -512 {
		t.Errorf("NewSystem allocates %d B for LSTM, %d B for GMM: allocation grows with chain length", lstm.bytes, gmm.bytes)
	}
}
