//go:build !race

package serve

import (
	"fmt"
	"runtime"
	"testing"

	"laxgpu/internal/obs"
)

// TestRecordTableBytesPerJob bounds what a settled record keeps on the heap:
// 10 000 records through add, finish and settle, each with a trace ID cut
// from its own traceparent header and a client cut from its own remote
// address, as handleSubmit hands them over. A row is 36 B in a pointer-free
// page and the trace ID is copied into it, so no header stays pinned, and
// the client leaves with the terminal transition (~37 B; ~62 with the 64 B
// row). A record, a done channel and a map slot per job, with the header and
// client pinned, was ~390 B.
// Built without -race, which keeps more per allocation.
func TestRecordTableBytesPerJob(t *testing.T) {
	const n, maxBytes = 10000, 48
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := newRecordTable(maxRecords)
	for id := int64(0); id < n; id++ {
		header := fmt.Sprintf("00-%s-%s-01", obs.TraceIDFrom(1, uint64(id)), obs.SpanIDFrom(1, uint64(id)))
		traceID, _, ok := obs.ParseTraceparent(header)
		if !ok {
			t.Fatalf("traceparent %q does not parse", header)
		}
		tbl.add(id, "LSTM", 7000, traceID, clientKey(fmt.Sprintf("10.0.%d.%d:%d", id>>8&0xff, id&0xff, 40000+id%20000)))
		tbl.update(id, func(js *JobStatus) { js.State, js.Admitted = "admitted", true })
		tbl.finish(id, func(js *JobStatus) {
			js.State, js.MetDeadline, js.LatencyUs = "done", true, 2500
		})
		tbl.settle(id)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B retained per settled record", b)
	if b > maxBytes {
		t.Errorf("a settled record retains %.1f B, want at most %d", b, maxBytes)
	}
	runtime.KeepAlive(tbl)
}
