// Package viz renders simulation traces as terminal visualizations: an
// ASCII Gantt timeline of the job schedule, built from the JSON-lines
// events the obs.JSONL probe emits. It exists so a run's scheduling behavior can be
// inspected without leaving the terminal — which jobs waited, which
// overlapped, where deadlines landed, what got rejected or cancelled.
package viz

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// Glyphs of the timeline rows.
const (
	glyphIdle     = ' ' // outside the job's lifetime
	glyphWaiting  = '.' // arrived/queued, no kernel executing
	glyphRunning  = '#' // at least one kernel in flight
	glyphDeadline = '|' // the absolute deadline falls in this bucket
	glyphMet      = '*' // finished here, deadline met
	glyphMissed   = '!' // finished here, deadline missed
	glyphCancel   = 'X' // cancelled here
	glyphReject   = 'R' // rejected on arrival
)

// ParseEvents decodes a JSON-lines trace (as written by obs.JSONL).
func ParseEvents(r io.Reader) ([]obs.TraceEvent, error) {
	var events []obs.TraceEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e obs.TraceEvent
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("viz: trace line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("viz: reading trace: %w", err)
	}
	return events, nil
}

// jobTrack accumulates one job's lifecycle from its events.
type jobTrack struct {
	id        int
	arrive    int64
	deadline  int64
	end       int64 // finish or cancel time; -1 while open
	met       bool
	rejected  bool
	cancelled bool
	// spans are [start,end) kernel-execution intervals.
	spans [][2]int64
	// openStart is the currently executing kernel's start (-1 if none).
	openStart int64
}

// Options control timeline rendering.
type Options struct {
	// Width is the number of time buckets (default 100).
	Width int

	// MaxJobs caps the rows rendered (default 40; jobs beyond it are
	// summarized in the footer).
	MaxJobs int
}

// RenderTimeline draws the schedule encoded in events. Rows are jobs in
// arrival order; columns are equal time buckets spanning the trace.
func RenderTimeline(w io.Writer, events []obs.TraceEvent, opts Options) error {
	if opts.Width <= 0 {
		opts.Width = 100
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 40
	}
	if len(events) == 0 {
		fmt.Fprintln(w, "viz: empty trace")
		return nil
	}

	tracks := map[int]*jobTrack{}
	var order []int
	var horizon int64
	track := func(id int) *jobTrack {
		t := tracks[id]
		if t == nil {
			t = &jobTrack{id: id, end: -1, openStart: -1}
			tracks[id] = t
			order = append(order, id)
		}
		return t
	}
	for _, e := range events {
		t := track(e.JobID)
		if e.At > horizon {
			horizon = e.At
		}
		switch e.Kind {
		case "arrive":
			t.arrive = e.At
			t.deadline = e.Deadline
		case "reject":
			t.rejected = true
			t.end = e.At
		case "kernel_start":
			if t.openStart < 0 {
				t.openStart = e.At
			}
		case "kernel_done":
			if t.openStart >= 0 {
				t.spans = append(t.spans, [2]int64{t.openStart, e.At})
				t.openStart = -1
			}
		case "finish":
			t.end = e.At
			t.met = e.Met
		case "cancel":
			t.cancelled = true
			t.end = e.At
			if t.openStart >= 0 {
				t.spans = append(t.spans, [2]int64{t.openStart, e.At})
				t.openStart = -1
			}
		}
	}
	for _, t := range tracks {
		if t.deadline > horizon {
			horizon = t.deadline
		}
	}
	if horizon == 0 {
		horizon = 1
	}

	bucket := func(at int64) int {
		b := int(at * int64(opts.Width) / horizon)
		if b >= opts.Width {
			b = opts.Width - 1
		}
		if b < 0 {
			b = 0
		}
		return b
	}

	sort.Ints(order)
	fmt.Fprintf(w, "timeline: %d jobs over %v (one column ≈ %v)\n",
		len(order), sim.Time(horizon), sim.Time(horizon/int64(opts.Width)))
	fmt.Fprintf(w, "legend: %c waiting  %c running  %c deadline  %c met  %c missed  %c cancelled  %c rejected\n\n",
		glyphWaiting, glyphRunning, glyphDeadline, glyphMet, glyphMissed, glyphCancel, glyphReject)

	met, missed, rejected, cancelled := 0, 0, 0, 0
	rows := 0
	for _, id := range order {
		t := tracks[id]
		switch {
		case t.rejected:
			rejected++
		case t.cancelled:
			cancelled++
		case t.met:
			met++
		default:
			missed++
		}
		if rows >= opts.MaxJobs {
			continue
		}
		rows++

		row := make([]rune, opts.Width)
		for i := range row {
			row[i] = glyphIdle
		}
		end := t.end
		if end < 0 {
			end = horizon
		}
		for b := bucket(t.arrive); b <= bucket(end); b++ {
			row[b] = glyphWaiting
		}
		for _, span := range t.spans {
			for b := bucket(span[0]); b <= bucket(span[1]); b++ {
				row[b] = glyphRunning
			}
		}
		if t.deadline > 0 && t.deadline <= horizon {
			db := bucket(t.deadline)
			if row[db] == glyphIdle || row[db] == glyphWaiting {
				row[db] = glyphDeadline
			}
		}
		switch {
		case t.rejected:
			row[bucket(t.arrive)] = glyphReject
		case t.cancelled:
			row[bucket(t.end)] = glyphCancel
		case t.end >= 0 && t.met:
			row[bucket(t.end)] = glyphMet
		case t.end >= 0:
			row[bucket(t.end)] = glyphMissed
		}
		fmt.Fprintf(w, "j%-4d %s\n", id, string(row))
	}
	if rows < len(order) {
		fmt.Fprintf(w, "... %d more jobs not shown\n", len(order)-rows)
	}
	fmt.Fprintf(w, "\n%d met, %d missed, %d rejected, %d cancelled\n", met, missed, rejected, cancelled)
	return nil
}

// sparkGlyphs are the eight levels of a unicode sparkline.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a compact single-line chart of the samples (e.g. device
// utilization over time), scaling to the data's own range.
func Sparkline(samples []float64) string {
	if len(samples) == 0 {
		return ""
	}
	min, max := samples[0], samples[0]
	for _, s := range samples {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	span := max - min
	out := make([]rune, len(samples))
	for i, s := range samples {
		idx := 0
		if span > 0 {
			idx = int((s - min) / span * float64(len(sparkGlyphs)-1))
		}
		out[i] = sparkGlyphs[idx]
	}
	return string(out)
}
