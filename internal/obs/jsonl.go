package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceEvent is one line of a structured run trace: the job-level schedule
// a simulation produced, suitable for timeline visualization or offline
// analysis. Events are encoded as JSON lines.
type TraceEvent struct {
	// At is the event time in nanoseconds from simulation start.
	At int64 `json:"at_ns"`

	// Kind is one of "arrive", "reject", "ready", "kernel_start",
	// "kernel_done", "finish", "cancel", "fallback".
	Kind string `json:"kind"`

	JobID     int    `json:"job"`
	Benchmark string `json:"benchmark,omitempty"`
	QueueID   int    `json:"queue,omitempty"`

	// Kernel and KernelIdx identify the kernel for kernel_* events.
	Kernel    string `json:"kernel,omitempty"`
	KernelIdx int    `json:"kernel_idx,omitempty"`

	// Deadline is the job's absolute deadline (arrive events).
	Deadline int64 `json:"deadline_ns,omitempty"`

	// Met reports deadline success (finish events).
	Met bool `json:"met,omitempty"`
}

// JSONL is the probe that writes a run's job and kernel lifecycle as
// TraceEvent JSON lines (the format internal/viz renders).
//
// The first write error latches (Err) and stops further writes, but the
// probe keeps counting the events it could not record (Dropped), so a
// truncated trace is detectable: a run is fully recorded iff Err() == nil,
// and Events()+Dropped() is the number the run emitted either way.
type JSONL struct {
	enc    *json.Encoder
	events int
	latch  ErrorLatch
}

// NewJSONL returns a probe writing JSON lines to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Events returns the number of events written.
func (t *JSONL) Events() int { return t.events }

// Err returns the first write error, if any.
func (t *JSONL) Err() error { return t.latch.Err() }

// Dropped returns the number of events lost after the first write error.
func (t *JSONL) Dropped() int { return t.latch.Dropped() }

func (t *JSONL) emit(e TraceEvent) {
	if t.latch.Failed() {
		t.latch.CountDropped()
		return
	}
	if err := t.enc.Encode(e); err != nil {
		t.latch.Latch(fmt.Errorf("obs: trace write: %w", err))
		t.latch.CountDropped()
		return
	}
	t.events++
}

// Job implements Probe.
func (t *JSONL) Job(e JobEvent) {
	t.emit(TraceEvent{
		At: int64(e.At), Kind: e.Kind.String(),
		JobID: e.Job, Benchmark: e.Benchmark, QueueID: e.Queue,
		Deadline: int64(e.Deadline), Met: e.Met,
	})
}

// KernelStart implements Probe.
func (t *JSONL) KernelStart(e KernelStart) {
	t.emit(TraceEvent{
		At: int64(e.At), Kind: "kernel_start",
		JobID: e.Job, QueueID: e.Queue, Kernel: e.Kernel, KernelIdx: e.Seq,
	})
}

// KernelDone implements Probe.
func (t *JSONL) KernelDone(e KernelDone) {
	t.emit(TraceEvent{
		At: int64(e.At), Kind: "kernel_done",
		JobID: e.Job, QueueID: e.Queue, Kernel: e.Kernel, KernelIdx: e.Seq,
	})
}

// Admission implements Probe; decisions are not part of the schedule trace.
func (t *JSONL) Admission(AdmissionDecision) {}

// Epoch implements Probe; epochs are not part of the schedule trace.
func (t *JSONL) Epoch(EpochSnapshot) {}

// Sample implements Probe; samples are not part of the schedule trace.
func (t *JSONL) Sample(JobSample) {}

// TableRefresh implements Probe; refreshes are not part of the schedule trace.
func (t *JSONL) TableRefresh(TableRefresh) {}
