package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Perfetto process IDs: one synthetic process groups the per-queue kernel
// tracks, another groups the per-job laxity counter tracks, so the two
// stay visually separate in ui.perfetto.dev.
const (
	pidQueues = 1
	pidLaxity = 2
)

// traceEvent is one Chrome trace-event JSON object (the subset Perfetto
// consumes): ph "M" metadata, "X" complete spans, "C" counters, "i"
// instants. Timestamps and durations are microseconds.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// perfettoTrace is the top-level JSON object ui.perfetto.dev loads.
type perfettoTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Perfetto is a Probe that records a run as Chrome trace-event JSON,
// loadable in ui.perfetto.dev (or chrome://tracing): one track per GPU
// compute queue carrying kernel execution spans, one counter track per job
// carrying its laxity over time, and instant markers for job lifecycle
// transitions. Events are buffered in memory; call Write after the run.
type Perfetto struct {
	events []traceEvent

	queuesSeen map[int]bool
	jobsSeen   map[int]bool
	headerDone bool

	// Export-time track state (AddFleetEvents / AddWireTrace); untouched by
	// probe callbacks, so probe-only runs stay byte-identical.
	fleetTids map[string]int
	traceTid  int
}

// NewPerfetto returns an empty Perfetto recorder.
func NewPerfetto() *Perfetto {
	return &Perfetto{
		queuesSeen: make(map[int]bool),
		jobsSeen:   make(map[int]bool),
	}
}

// header lazily emits the process-naming metadata once.
func (p *Perfetto) header() {
	if p.headerDone {
		return
	}
	p.headerDone = true
	p.events = append(p.events,
		traceEvent{Name: "process_name", Phase: "M", Pid: pidQueues, Args: map[string]any{"name": "GPU queues"}},
		traceEvent{Name: "process_name", Phase: "M", Pid: pidLaxity, Args: map[string]any{"name": "LAX laxity"}},
	)
}

// queueTrack names the queue's thread track on first sight.
func (p *Perfetto) queueTrack(queue int) {
	p.header()
	if queue < 0 || p.queuesSeen[queue] {
		return
	}
	p.queuesSeen[queue] = true
	p.events = append(p.events, traceEvent{
		Name: "thread_name", Phase: "M", Pid: pidQueues, Tid: queue,
		Args: map[string]any{"name": fmt.Sprintf("queue %d", queue)},
	})
}

// Job implements Probe: lifecycle transitions become instant markers on the
// job's queue track (global scope for queue-less events like reject).
func (p *Perfetto) Job(e JobEvent) {
	p.queueTrack(e.Queue)
	ev := traceEvent{
		Name:  fmt.Sprintf("job %d %s", e.Job, e.Kind),
		Phase: "i", Ts: us(e.At), Pid: pidQueues, Cat: "job",
		Args: map[string]any{"job": e.Job},
	}
	if e.Queue >= 0 {
		ev.Tid = e.Queue
		ev.Scope = "t"
	} else {
		ev.Scope = "g"
	}
	if e.Kind == JobArrive {
		ev.Args["deadline_us"] = us(e.Deadline)
	}
	if e.Kind == JobFinish {
		ev.Args["met"] = e.Met
	}
	p.events = append(p.events, ev)
}

// Admission implements Probe: rejected jobs with computed terms get a
// global instant carrying the Little's-Law verdict.
func (p *Perfetto) Admission(e AdmissionDecision) {
	if !e.HasTerms {
		return
	}
	p.header()
	verdict := "accept"
	if !e.Accepted {
		verdict = "reject"
	}
	p.events = append(p.events, traceEvent{
		Name:  fmt.Sprintf("admit job %d: %s", e.Job, verdict),
		Phase: "i", Ts: us(e.At), Pid: pidQueues, Scope: "g", Cat: "admission",
		Args: map[string]any{
			"queue_delay_us": us(e.QueueDelay),
			"hold_us":        us(e.HoldTime),
			"deadline_us":    us(e.Deadline),
		},
	})
}

// Epoch implements Probe (no events; epochs show through samples).
func (p *Perfetto) Epoch(EpochSnapshot) {}

// Sample implements Probe: laxity samples become one counter track per job.
func (p *Perfetto) Sample(e JobSample) {
	if !e.HasLaxity {
		return
	}
	p.header()
	if !p.jobsSeen[e.Job] {
		p.jobsSeen[e.Job] = true
		p.events = append(p.events, traceEvent{
			Name: "thread_name", Phase: "M", Pid: pidLaxity, Tid: e.Job,
			Args: map[string]any{"name": fmt.Sprintf("laxity job %d", e.Job)},
		})
	}
	p.events = append(p.events, traceEvent{
		Name:  fmt.Sprintf("laxity job %d", e.Job),
		Phase: "C", Ts: us(e.At), Pid: pidLaxity, Tid: e.Job,
		Args: map[string]any{"laxity_us": us(e.Laxity)},
	})
}

// TableRefresh implements Probe (aggregated by Metrics, not drawn).
func (p *Perfetto) TableRefresh(TableRefresh) {}

// KernelStart implements Probe: ensures the queue's track exists before its
// first span lands.
func (p *Perfetto) KernelStart(e KernelStart) { p.queueTrack(e.Queue) }

// KernelDone implements Probe: the kernel's full execution becomes a
// complete span ("X") on its queue's track.
func (p *Perfetto) KernelDone(e KernelDone) {
	p.queueTrack(e.Queue)
	p.events = append(p.events, traceEvent{
		Name:  e.Kernel,
		Phase: "X", Ts: us(e.Start), Dur: us(e.At - e.Start),
		Pid: pidQueues, Tid: e.Queue, Cat: "kernel",
		Args: map[string]any{"job": e.Job, "seq": e.Seq},
	})
}

// Events returns the number of buffered trace events.
func (p *Perfetto) Events() int { return len(p.events) }

// Write serializes the buffered trace as Chrome trace-event JSON. The
// output is deterministic: events appear in emission order and map keys are
// sorted by the JSON encoder.
func (p *Perfetto) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(perfettoTrace{
		TraceEvents:     p.events,
		DisplayTimeUnit: "ms",
	})
}

// WriteFile writes the trace to a new file at path (laxgw and laxtrace
// -perfetto).
func (p *Perfetto) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
