// Package viz renders simulation traces as terminal visualizations: an
// ASCII Gantt timeline of the job schedule, built from the per-job traces an
// obs.TraceRecorder assembles. It exists so a run's scheduling behavior can be
// inspected without leaving the terminal — which jobs waited, which
// overlapped, where deadlines landed, what got rejected or cancelled.
package viz

import (
	"fmt"
	"io"

	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// Glyphs of the timeline rows.
const (
	glyphIdle     = ' ' // outside the job's lifetime
	glyphWaiting  = '.' // arrived/queued, no kernel executing
	glyphRunning  = '#' // a kernel execution covers this bucket
	glyphDeadline = '|' // the absolute deadline falls in this bucket
	glyphMet      = '*' // finished here, deadline met
	glyphMissed   = '!' // finished here, deadline missed
	glyphCancel   = 'X' // cancelled here
	glyphReject   = 'R' // rejected on arrival
)

const (
	timelineWidth = 100 // time buckets per row
	maxRows       = 40  // rows rendered; later jobs are only counted
)

// RenderTimeline draws the schedule the traces record, one row per trace in
// the order given; columns are equal time buckets spanning the traces.
// Running glyphs come from the kernel spans, so a kernel attempt that never
// completed (killed, or cut short by a cancel) draws as waiting.
func RenderTimeline(w io.Writer, traces []obs.JobTrace) {
	if len(traces) == 0 {
		fmt.Fprintln(w, "viz: empty trace")
		return
	}
	var horizon sim.Time
	for i := range traces {
		t := &traces[i]
		horizon = max(horizon, t.Arrival, t.Deadline)
		if t.State != "running" {
			horizon = max(horizon, t.Finish)
		}
		for _, s := range t.Spans {
			horizon = max(horizon, s.End)
		}
	}
	if horizon == 0 {
		horizon = 1
	}
	bucket := func(at sim.Time) int {
		return min(max(int(at*timelineWidth/horizon), 0), timelineWidth-1)
	}

	fmt.Fprintf(w, "timeline: %d jobs over %v (one column ≈ %v)\n",
		len(traces), horizon, horizon/timelineWidth)
	fmt.Fprintf(w, "legend: %c waiting  %c running  %c deadline  %c met  %c missed  %c cancelled  %c rejected\n\n",
		glyphWaiting, glyphRunning, glyphDeadline, glyphMet, glyphMissed, glyphCancel, glyphReject)

	met, missed, rejected, cancelled := 0, 0, 0, 0
	for i := range traces {
		t := &traces[i]
		switch {
		case t.State == "rejected":
			rejected++
		case t.State == "cancelled":
			cancelled++
		case t.Met:
			met++
		default:
			missed++
		}
		if i >= maxRows {
			continue
		}

		row := make([]rune, timelineWidth)
		for b := range row {
			row[b] = glyphIdle
		}
		end := t.Finish
		if t.State == "running" {
			end = horizon
		}
		for b := bucket(t.Arrival); b <= bucket(end); b++ {
			row[b] = glyphWaiting
		}
		for _, s := range t.Spans {
			if s.Kind != obs.SpanKernel {
				continue
			}
			for b := bucket(s.Start); b <= bucket(s.End); b++ {
				row[b] = glyphRunning
			}
		}
		if t.Deadline > 0 {
			if db := bucket(t.Deadline); row[db] == glyphIdle || row[db] == glyphWaiting {
				row[db] = glyphDeadline
			}
		}
		switch t.State {
		case "rejected":
			row[bucket(t.Arrival)] = glyphReject
		case "cancelled":
			row[bucket(t.Finish)] = glyphCancel
		case "done":
			if t.Met {
				row[bucket(t.Finish)] = glyphMet
			} else {
				row[bucket(t.Finish)] = glyphMissed
			}
		}
		fmt.Fprintf(w, "j%-4d %s\n", t.Job, string(row))
	}
	if len(traces) > maxRows {
		fmt.Fprintf(w, "... %d more jobs not shown\n", len(traces)-maxRows)
	}
	fmt.Fprintf(w, "\n%d met, %d missed, %d rejected, %d cancelled\n", met, missed, rejected, cancelled)
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
