package gateway

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// jobDump is everything a reader of the gateway can see of one job ID.
type jobDump struct {
	ID       int64
	Status   *JobStatus     `json:",omitempty"`
	Trace    *obs.WireTrace `json:",omitempty"`
	RemoteID int64          `json:",omitempty"`
	Done     string         // "nil", "open" or "closed"
}

// dumpJournal writes every job ID the gateway has issued — its Status, the
// gateway half of its trace, its remote ID and its Done state — then
// FleetJobs, Fleet and Stats, as one JSON document per read. indent selects
// the readable form.
func dumpJournal(t *testing.T, gw *Gateway, w io.Writer, indent bool) {
	t.Helper()
	gw.mu.Lock()
	n := gw.nextID
	gw.mu.Unlock()
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", " ")
	}
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < n; id++ {
		d := jobDump{ID: id, Done: "nil"}
		if st, ok := gw.Status(id); ok {
			d.Status = &st
		}
		if wire, _, remoteID, ok := gw.gatewayHalf(id); ok {
			d.Trace, d.RemoteID = &wire, remoteID
		}
		if ch := gw.Done(id); ch != nil {
			d.Done = "open"
			select {
			case <-ch:
				d.Done = "closed"
			default:
			}
		}
		put(d)
	}
	put(gw.FleetJobs())
	put(gw.Fleet())
	put(gw.Stats())
}

// hookBackend runs onSubmit before each Submit it forwards: a test's window
// into the gateway while place has mu released.
type hookBackend struct {
	Backend
	onSubmit func()
}

func (b *hookBackend) Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	b.onSubmit()
	return b.Backend.Submit(now, job, done)
}

// capStub is one scripted node of the past-the-cap run. Each Submit first
// settles every job the node accepted earlier, so completions arrive while
// place has mu released, as they do from a real node. It keeps one job open
// for stubHoldFor submissions, refuses every 53rd ID at admission, and
// reports a probe drain that sheds best-effort work every fourth round.
type capStub struct {
	name   string
	index  int64
	probes int
	queue  []stubJob
	hold   stubJob
	held   bool
}

type stubJob struct {
	id   int64
	done func(Outcome)
}

const stubHoldFor = 100_000

func (s *capStub) Name() string { return s.name }

func (s *capStub) Probe(sim.Time) (Headroom, error) {
	s.probes++
	h := Headroom{Capacity: 1, CapacityFrac: 1}
	if s.probes%4 == 0 {
		h.Drain = 2 * sim.Second
	}
	return h, nil
}

func (s *capStub) Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	for _, q := range s.queue {
		q.done(stubOutcome(q.id))
	}
	s.queue = s.queue[:0]
	if s.hold.done != nil && job.ID >= s.hold.id+stubHoldFor {
		s.hold.done(stubOutcome(s.hold.id))
		s.hold.done = nil
	}
	if job.ID%53 == 7 {
		return Verdict{Retry: 2*sim.Millisecond + sim.Time(job.ID)}, nil
	}
	if !s.held && job.ID >= 2000 {
		s.hold, s.held = stubJob{job.ID, done}, true
	} else {
		s.queue = append(s.queue, stubJob{job.ID, done})
	}
	return Verdict{Accepted: true, RemoteID: job.ID*3 + s.index}, nil
}

// stubOutcome is the scripted terminal report for job id: cancellations with
// and without a node-given cause, misses with and without one, the rest met.
func stubOutcome(id int64) Outcome {
	lat := sim.Time(id%997+1) * sim.Microsecond
	switch {
	case id%17 == 0:
		return Outcome{Terminal: verify.FleetCancelled}
	case id%19 == 0:
		return Outcome{Terminal: verify.FleetCancelled, Cause: "faulted"}
	case id%7 == 0:
		return Outcome{Terminal: verify.FleetDone, Latency: lat, Cause: "contended"}
	case id%13 == 0:
		return Outcome{Terminal: verify.FleetDone, FellBack: true, Latency: lat}
	default:
		return Outcome{Terminal: verify.FleetDone, Met: true, Latency: lat}
	}
}

// TestJournalStatusGolden pins everything the journal answers — per job
// Status, the gateway half of the trace, the remote ID and the Done state,
// then FleetJobs, Fleet and Stats — across the crash scenario (read in the
// middle of its failover and after the drain), the freeze scenario and a
// past-the-cap run of 140 000 submissions over three scripted nodes. The
// last dump is ~14 MB, so only its sha256 is stored.
func TestJournalStatusGolden(t *testing.T) {
	t.Run("crash", func(t *testing.T) {
		gw, clock := fleet(t, 3, ";crash@5ms", 42, 1)
		gw.TickProbes(0)
		submitN(t, gw, 12, sim.Second)
		var out bytes.Buffer
		calls := 0
		for _, n := range gw.table.nodes {
			n.be = &hookBackend{Backend: n.be, onSubmit: func() {
				// The third failover offer: two orphans re-homed, two to go.
				if calls++; calls == 3 {
					dumpJournal(t, gw, &out, true)
				}
			}}
		}
		clock.Set(6 * sim.Millisecond)
		gw.TickProbes(6 * sim.Millisecond)
		if calls < 3 {
			t.Fatalf("failover made %d offers; the mid-failover read never ran", calls)
		}
		clock.Set(10 * sim.Second)
		gw.TickProbes(10 * sim.Second)
		dumpJournal(t, gw, &out, true)
		compareGolden(t, "crash_status.golden.json", out.Bytes())
	})

	t.Run("freeze", func(t *testing.T) {
		gw, clock := fleet(t, 2, "freeze@5ms+20ms", 7, 1)
		gw.TickProbes(0)
		bench, _ := workload.FindBenchmark("LSTM")
		if _, _, reason := gw.Submit(bench, 60*sim.Second, Standard); reason != "" {
			t.Fatalf("submission refused: %s", reason)
		}
		var out bytes.Buffer
		clock.Set(6 * sim.Millisecond)
		gw.TickProbes(6 * sim.Millisecond)
		dumpJournal(t, gw, &out, true)
		clock.Set(100 * sim.Millisecond)
		gw.TickProbes(100 * sim.Millisecond)
		dumpJournal(t, gw, &out, true)
		compareGolden(t, "freeze_status.golden.json", out.Bytes())
	})

	t.Run("past-the-cap", func(t *testing.T) {
		const submissions = 140_000
		clock := serve.NewManualClock()
		var backends []Backend
		for g := 0; g < 3; g++ {
			backends = append(backends, &capStub{name: fmt.Sprintf("stub%d", g), index: int64(g)})
		}
		gw, err := New(Options{Backends: backends, Clock: clock, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		bench, _ := workload.FindBenchmark("LSTM")
		classes := []Class{BestEffort, Critical, Standard, Standard, Standard}
		verdicts := map[string]int{}
		for i := 0; i < submissions; i++ {
			if i%1000 == 0 {
				gw.TickProbes(clock.Now())
			}
			clock.Set(sim.Time(i) * 10 * sim.Microsecond)
			_, _, reason := gw.Submit(bench, sim.Second, classes[i%len(classes)])
			verdicts[reason]++
		}
		for _, reason := range []string{"", serve.ReasonAdmission, serve.ReasonShed} {
			if verdicts[reason] == 0 {
				t.Fatalf("verdicts %v: no %q; the script lost its teeth", verdicts, reason)
			}
		}
		if n := len(gw.FleetJobs()); n <= maxRecords/2 {
			t.Fatalf("journal holds %d entries; the run never filled it", n)
		}
		h := sha256.New()
		dumpJournal(t, gw, h, false)
		compareGolden(t, "past_cap_status.golden.sha256", fmt.Appendf(nil, "%x\n", h.Sum(nil)))
	})
}
