package harness

import (
	"runtime"
	"testing"

	"laxgpu/internal/workload"
)

// TestRecycledCellBytesPerJob is the allocation guard on a recycled sweep
// cell: EDF/LSTM/high/128 runs twice through one Runner (its memo emptied in
// between), and the second run, built in the system the first handed back,
// may allocate at most 300 B a job (runtime.MemStats). A cell built from
// scratch allocates ~680 B a job: the event arena, the WG batch pool and the
// JobRun slab all start cold.
func TestRecycledCellBytesPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a random quarter of what is put in it")
	}
	// One P: a sync.Pool keeps what is put in the putting P's private slot,
	// which a Get on another P does not see, so a goroutine moved between
	// the two runs would build its second cell from scratch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := NewRunner()
	r.Workers = 1
	if _, err := r.Run("EDF", "LSTM", workload.HighRate); err != nil {
		t.Fatal(err)
	}
	r.cache = newRunCache()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sum, err := r.Run("EDF", "LSTM", workload.HighRate)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / float64(sum.TotalJobs)
	if perJob > 300 {
		t.Fatalf("recycled EDF/LSTM/high cell allocated %.0f B/job, want <= 300", perJob)
	}
	t.Logf("recycled EDF/LSTM/high cell: %.0f B/job over %d jobs", perJob, sum.TotalJobs)
}
