package obs

import (
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"laxgpu/internal/sim"
)

// perfettoJob drives one job through the exporter the way a LAX run does:
// arrive, a verdict with terms, ready, four kernels on one queue with a
// laxity sample before each, finish: 13 events, the job's laxity track
// among them.
func perfettoJob(p *Perfetto, id int) {
	at := sim.Time(id) * 100 * usT
	q := id % 8
	p.Job(JobEvent{At: at, Kind: JobArrive, Job: id, Queue: -1, Deadline: at + 1000*usT})
	p.Admission(AdmissionDecision{At: at, Job: id, Accepted: true, HasTerms: true,
		QueueDelay: 10 * usT, HoldTime: 50 * usT, Deadline: 1000 * usT})
	p.Job(JobEvent{At: at + usT, Kind: JobReady, Job: id, Queue: q})
	for seq := 0; seq < 4; seq++ {
		start := at + sim.Time(2+10*seq)*usT
		p.Sample(JobSample{At: start, Job: id, Queue: q, HasLaxity: true, Laxity: 900*usT - start})
		p.KernelStart(KernelStart{At: start, Job: id, Queue: q, Seq: seq, Kernel: "gemm"})
		p.KernelDone(KernelDone{At: start + 10*usT, Job: id, Queue: q, Seq: seq, Kernel: "gemm", Start: start})
	}
	p.Job(JobEvent{At: at + 50*usT, Kind: JobFinish, Job: id, Queue: q, Met: true})
}

// TestPerfettoRecordAllocs: a probe callback appends one row into the
// current 512-row chunk, so recording costs at most one allocation per 256
// events in steady state; and Write renders into one reused buffer, so
// writing 10 000 escape-free events allocates no more than writing 1 000;
// and a recorder released after its run hands its chunks to the next, which
// records the same run without allocating a chunk.
func TestPerfettoRecordAllocs(t *testing.T) {
	// Two collections empty rowChunks, so every chunk below is allocated,
	// whatever earlier tests released: the count is the same every run.
	runtime.GC()
	runtime.GC()
	p := NewPerfetto()
	id := 0
	for ; id < 64; id++ {
		perfettoJob(p, id)
	}
	const jobs = 1000
	before := p.Events()
	allocs := testing.AllocsPerRun(1, func() {
		for range jobs {
			perfettoJob(p, id)
			id++
		}
	})
	events := (p.Events() - before) / 2 // AllocsPerRun also runs f once to warm up
	if events != 13*jobs {
		t.Fatalf("%d jobs recorded %d events, want %d", jobs, events, 13*jobs)
	}
	if allocs*256 > float64(events) {
		t.Errorf("recording %d events cost %v allocations, want <= 1 per 256 events", events, allocs)
	}

	// Write's buffer and a released recorder's chunks are pooled.
	if raceEnabled {
		t.Log("Write and recycled cases skipped: the race detector's sync.Pool drops a random quarter of what is put in it")
		return
	}
	writeAllocs := func(n int) float64 {
		p := NewPerfetto()
		for id := 0; p.Events() < n; id++ {
			perfettoJob(p, id)
		}
		return testing.AllocsPerRun(5, func() {
			if err := p.Write(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := writeAllocs(1000), writeAllocs(10000)
	if large > small || large > 2 {
		t.Errorf("Write allocates %v times for 10 000 events, %v for 1 000; want the same, at most 2", large, small)
	}
	t.Logf("record: %v allocations for %d events; Write: %v allocations for 10 000 events", allocs, events, large)

	// A recycled run: a recorder released after its run hands its chunks to
	// the next, which records the same run without allocating a chunk.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a Put lands in this P's pool
	run := func() *Perfetto {
		p := NewPerfetto()
		for id := range jobs {
			perfettoJob(p, id)
		}
		return p
	}
	run().Release()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p = run()
	runtime.ReadMemStats(&m1)
	p.Release()
	chunk := unsafe.Sizeof([rowsPerChunk]row{})
	if bytes := m1.TotalAlloc - m0.TotalAlloc; bytes >= uint64(chunk) {
		t.Errorf("a recycled %d-event run allocated %d B, at least a chunk's %d", 13*jobs, bytes, chunk)
	}
	t.Logf("recycled run: %d allocations, %d B for %d events", m1.Mallocs-m0.Mallocs,
		m1.TotalAlloc-m0.TotalAlloc, 13*jobs)
}

// TestIDSetGrowthAllocs: the seen-ID bitmap grows by appending, amortized,
// in every build. Growing it with append(bits, make(...)...) allocated the
// made slice once per 64 new IDs under -race, which turns that idiom's
// optimization off: 1 024 allocations here, and a flaky
// TestPerfettoRecordAllocs.
func TestIDSetGrowthAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		var s idSet
		for id := range 1 << 16 {
			s.add(id)
		}
	})
	if allocs > 16 {
		t.Errorf("adding 65 536 consecutive IDs costs %v allocations, want at most 16", allocs)
	}
}

// TestAppendMicrosMatchesFloat holds appendMicros to what the exporter
// rendered before probe rows kept integer nanoseconds:
// appendFloat(float64(n)/1000), at the edges of its fast path and at 2 000
// random n of each bit width, both signs.
func TestAppendMicrosMatchesFloat(t *testing.T) {
	ns := []sim.Time{0, 1, -1, 999, -999, 1000, -1000, 1001, 10, 100, 1e15 - 1, -(1e15 - 1), 1e15, -1e15,
		1e15 + 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 63; width++ {
		lo := int64(1) << (width - 1)
		for range 2000 {
			n := sim.Time(lo | rng.Int63n(lo))
			ns = append(ns, n, -n)
		}
	}
	var got, want []byte
	for _, n := range ns {
		got = appendMicros(got[:0], n)
		want = appendFloat(want[:0], float64(n)/float64(sim.Microsecond))
		if string(got) != string(want) {
			t.Fatalf("appendMicros(%d) = %s, appendFloat gives %s", n, got, want)
		}
	}
}

// BenchmarkPerfettoWrite is the cost of rendering a 1 000-job LAX-shaped
// recording (13 000 events) as trace-event JSON.
func BenchmarkPerfettoWrite(b *testing.B) {
	p := NewPerfetto()
	for id := 0; id < 1000; id++ {
		perfettoJob(p, id)
	}
	var n countingWriter
	if err := p.Write(&n); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// countingWriter counts the bytes written to it.
type countingWriter int

func (c *countingWriter) Write(b []byte) (int, error) {
	*c += countingWriter(len(b))
	return len(b), nil
}
