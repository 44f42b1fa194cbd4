package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"laxgpu/internal/sim"
)

// refPerfetto is the Perfetto exporter as it stood before its events became
// typed rows: every callback built a map-shaped traceEvent, formatted its
// name with fmt.Sprintf, and Write handed the whole slice to encoding/json.
// Test-only: TestPerfettoMatchesReference and FuzzPerfettoMatchesReference
// hold the live exporter to its bytes.
type refPerfetto struct {
	events []refTraceEvent

	queuesSeen map[int]bool
	jobsSeen   map[int]bool
	headerDone bool

	fleetTids map[string]int
	traceTid  int
}

type refTraceEvent struct {
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

type refPerfettoTrace struct {
	TraceEvents     []refTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

func newRefPerfetto() *refPerfetto {
	return &refPerfetto{queuesSeen: make(map[int]bool), jobsSeen: make(map[int]bool)}
}

func (p *refPerfetto) header() {
	if p.headerDone {
		return
	}
	p.headerDone = true
	p.events = append(p.events,
		refTraceEvent{Name: "process_name", Phase: "M", Pid: pidQueues, Args: map[string]any{"name": "GPU queues"}},
		refTraceEvent{Name: "process_name", Phase: "M", Pid: pidLaxity, Args: map[string]any{"name": "LAX laxity"}},
	)
}

func (p *refPerfetto) queueTrack(queue int) {
	p.header()
	if queue < 0 || p.queuesSeen[queue] {
		return
	}
	p.queuesSeen[queue] = true
	p.events = append(p.events, refTraceEvent{
		Name: "thread_name", Phase: "M", Pid: pidQueues, Tid: queue,
		Args: map[string]any{"name": fmt.Sprintf("queue %d", queue)},
	})
}

func (p *refPerfetto) Job(e JobEvent) {
	p.queueTrack(e.Queue)
	ev := refTraceEvent{
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

func (p *refPerfetto) Admission(e AdmissionDecision) {
	if !e.HasTerms {
		return
	}
	p.header()
	verdict := "accept"
	if !e.Accepted {
		verdict = "reject"
	}
	p.events = append(p.events, refTraceEvent{
		Name:  fmt.Sprintf("admit job %d: %s", e.Job, verdict),
		Phase: "i", Ts: us(e.At), Pid: pidQueues, Scope: "g", Cat: "admission",
		Args: map[string]any{
			"queue_delay_us": us(e.QueueDelay),
			"hold_us":        us(e.HoldTime),
			"deadline_us":    us(e.Deadline),
		},
	})
}

func (p *refPerfetto) Epoch(EpochSnapshot) {}

func (p *refPerfetto) Sample(e JobSample) {
	if !e.HasLaxity {
		return
	}
	p.header()
	if !p.jobsSeen[e.Job] {
		p.jobsSeen[e.Job] = true
		p.events = append(p.events, refTraceEvent{
			Name: "thread_name", Phase: "M", Pid: pidLaxity, Tid: e.Job,
			Args: map[string]any{"name": fmt.Sprintf("laxity job %d", e.Job)},
		})
	}
	p.events = append(p.events, refTraceEvent{
		Name:  fmt.Sprintf("laxity job %d", e.Job),
		Phase: "C", Ts: us(e.At), Pid: pidLaxity, Tid: e.Job,
		Args: map[string]any{"laxity_us": us(e.Laxity)},
	})
}

func (p *refPerfetto) TableRefresh(TableRefresh) {}

func (p *refPerfetto) KernelStart(e KernelStart) { p.queueTrack(e.Queue) }

func (p *refPerfetto) KernelDone(e KernelDone) {
	p.queueTrack(e.Queue)
	p.events = append(p.events, refTraceEvent{
		Name:  e.Kernel,
		Phase: "X", Ts: us(e.Start), Dur: us(e.At - e.Start),
		Pid: pidQueues, Tid: e.Queue, Cat: "kernel",
		Args: map[string]any{"job": e.Job, "seq": e.Seq},
	})
}

func (p *refPerfetto) Events() int { return len(p.events) }

func (p *refPerfetto) Write(w io.Writer) error {
	return json.NewEncoder(w).Encode(refPerfettoTrace{TraceEvents: p.events, DisplayTimeUnit: "ms"})
}

func (p *refPerfetto) fleetTrack(node string) int {
	if p.fleetTids == nil {
		p.fleetTids = make(map[string]int)
		p.events = append(p.events, refTraceEvent{
			Name: "process_name", Phase: "M", Pid: pidFleet,
			Args: map[string]any{"name": "fleet events"},
		})
	}
	tid, ok := p.fleetTids[node]
	if !ok {
		tid = len(p.fleetTids)
		p.fleetTids[node] = tid
		p.events = append(p.events, refTraceEvent{
			Name: "thread_name", Phase: "M", Pid: pidFleet, Tid: tid,
			Args: map[string]any{"name": node},
		})
	}
	return tid
}

func (p *refPerfetto) AddFleetEvents(evs []FleetEvent) {
	for _, e := range evs {
		tid := p.fleetTrack(e.Node)
		p.events = append(p.events, refTraceEvent{
			Name:  fmt.Sprintf("%s %s", e.Name, e.Detail),
			Phase: "i", Ts: e.AtUs, Pid: pidFleet, Tid: tid, Scope: "t", Cat: "fleet",
			Args: map[string]any{"node": e.Node, "event": e.Name},
		})
	}
}

func (p *refPerfetto) AddWireTrace(t WireTrace) {
	if p.traceTid == 0 {
		p.events = append(p.events, refTraceEvent{
			Name: "process_name", Phase: "M", Pid: pidJobs,
			Args: map[string]any{"name": "job traces"},
		})
	}
	p.traceTid++
	tid := p.traceTid
	p.events = append(p.events, refTraceEvent{
		Name: "thread_name", Phase: "M", Pid: pidJobs, Tid: tid,
		Args: map[string]any{"name": fmt.Sprintf("job %s (%s)", t.Job, t.Benchmark)},
	})
	for _, s := range t.Spans {
		args := map[string]any{"node": s.Node}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		if s.EndUs > s.StartUs {
			p.events = append(p.events, refTraceEvent{
				Name:  s.Name,
				Phase: "X", Ts: s.StartUs, Dur: s.EndUs - s.StartUs,
				Pid: pidJobs, Tid: tid, Cat: s.Kind, Args: args,
			})
			continue
		}
		p.events = append(p.events, refTraceEvent{
			Name:  s.Name,
			Phase: "i", Ts: s.StartUs, Pid: pidJobs, Tid: tid, Scope: "t",
			Cat: s.Kind, Args: args,
		})
	}
}

// perfettoExporter is the surface both exporters share.
type perfettoExporter interface {
	Probe
	AddFleetEvents([]FleetEvent)
	AddWireTrace(WireTrace)
	Events() int
	Write(io.Writer) error
}

// matchPerfetto feeds the same calls to the exporter and to refPerfetto and
// requires the same event count, the same Write error and the same bytes.
// It returns the Write error.
func matchPerfetto(t *testing.T, name string, feed func(perfettoExporter)) error {
	t.Helper()
	got, want := NewPerfetto(), newRefPerfetto()
	feed(got)
	feed(want)
	if g, w := got.Events(), want.Events(); g != w {
		t.Fatalf("%s: %d events, reference %d", name, g, w)
	}
	var gb, wb bytes.Buffer
	gerr, werr := got.Write(&gb), want.Write(&wb)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: Write error %v, reference %v", name, gerr, werr)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		g, w := gb.Bytes(), wb.Bytes()
		i := 0
		for i < min(len(g), len(w)) && g[i] == w[i] {
			i++
		}
		from := max(0, i-80)
		t.Fatalf("%s: output differs from the reference at byte %d\n got  …%s\n want …%s",
			name, i, g[from:min(len(g), i+80)], w[from:min(len(w), i+80)])
	}
	return gerr
}

// awkward are strings encoding/json escapes: quote, backslash, the HTML
// characters, control bytes, DEL, invalid and truncated UTF-8, the JSON-legal
// line separators JavaScript rejects, and non-ASCII text.
var awkward = []string{
	"", "gemm", `say "hi"`, `C:\path`, "<b>&amp;</b>", "a<b", "a>b", "a&b", "tab\there", "nl\n\r", "\x00\x01\x1f",
	"del\x7f", "bad\xff\xfeutf8", "cut\xe2\x80", "\xe2\x80 split", "line\u2028sep\u2029", "héllo wörld", "emoji 🚀",
}

// TestPerfettoMatchesReference holds the exporter to refPerfetto's bytes on
// hand-picked edge cases: times that print in 'e' form or as fractions of a
// microsecond, negative laxity and queue delay, huge and negative IDs,
// unknown lifecycle kinds, strings that need escaping in every string
// field, zero-length and inverted spans, and times JSON cannot carry.
func TestPerfettoMatchesReference(t *testing.T) {
	// Every document but the non-finite ones must render, or a shared
	// error would hide a difference in the bytes.
	match := func(name string, feed func(perfettoExporter)) {
		t.Helper()
		if err := matchPerfetto(t, name, feed); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	match("empty", func(p perfettoExporter) {})

	times := []sim.Time{0, 1, 999, 1000, 1001, sim.Microsecond * 123456789, -1, -999, math.MaxInt64, math.MinInt64}
	match("probe times", func(p perfettoExporter) {
		for i, at := range times {
			q := i%4 - 1
			p.Job(JobEvent{At: at, Kind: JobArrive, Job: i, Queue: q, Deadline: times[(i+3)%len(times)]})
			p.Admission(AdmissionDecision{At: at, Job: i, Accepted: i%2 == 0, HasTerms: true,
				QueueDelay: -at, HoldTime: times[(i+1)%len(times)], Deadline: times[(i+2)%len(times)]})
			p.Admission(AdmissionDecision{At: at, Job: i, Accepted: true})
			p.Sample(JobSample{At: at, Job: i, Queue: q, HasLaxity: true, Laxity: -at - 5*sim.Microsecond})
			p.Sample(JobSample{At: at, Job: i, HasLaxity: false})
			p.KernelStart(KernelStart{At: at, Job: i, Queue: q, Seq: i, Kernel: "gemm"})
			p.KernelDone(KernelDone{At: at, Job: i, Queue: q, Seq: -i, Kernel: "gemm", Start: times[(i+5)%len(times)]})
			p.KernelDone(KernelDone{At: at, Job: i, Queue: q, Seq: i, Kernel: "same instant", Start: at})
			p.Job(JobEvent{At: at, Kind: JobFinish, Job: i, Queue: q, Met: i%3 == 0})
		}
	})

	match("probe ids and kinds", func(p perfettoExporter) {
		for i, id := range []int{0, 1, -1, 63, 64, 1<<20 - 1, 1 << 20, -(1 << 40), math.MaxInt64, math.MinInt64, 1, 64} {
			for k := JobEventKind(-1); k <= JobFallback+1; k++ {
				p.Job(JobEvent{At: sim.Time(i), Kind: k, Job: id, Queue: id, Deadline: sim.Time(id), Met: true})
			}
			p.Sample(JobSample{At: sim.Time(i), Job: id, HasLaxity: true, Laxity: sim.Time(id)})
			p.KernelStart(KernelStart{Job: id, Queue: -id})
			p.Epoch(EpochSnapshot{At: sim.Time(i)})
			p.TableRefresh(TableRefresh{At: sim.Time(i)})
		}
	})

	match("strings", func(p perfettoExporter) {
		for i, s := range awkward {
			p.KernelDone(KernelDone{At: sim.Time(i + 10), Job: i, Queue: i % 3, Seq: i, Kernel: s, Start: 3})
			p.AddFleetEvents([]FleetEvent{
				{AtUs: float64(i), Name: s, Node: s, Detail: s},
				{AtUs: float64(i), Name: "breaker", Node: awkward[(i+1)%len(awkward)], Detail: s},
				{AtUs: float64(i), Name: s, Node: "node-a"},
			})
			p.AddWireTrace(WireTrace{Job: s, Benchmark: awkward[(i+2)%len(awkward)], Spans: []WireSpan{
				{Kind: s, Name: s, Node: s, StartUs: 1, EndUs: 2, Detail: s},
				{Kind: s, Name: s, Node: s, StartUs: 2, EndUs: 2, Detail: s},
			}})
		}
	})

	floats := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 9.99e-7, 1e-6, 0.001, 0.999, 1, 12.5,
		123456789.123, 1e20, 1e21, -1e21, 5e22, 1e300, 5e-324, 1.7e308, -1e300, 1.5e-300}
	match("export floats", func(p perfettoExporter) {
		for i, f := range floats {
			g := floats[(i+7)%len(floats)]
			p.AddFleetEvents([]FleetEvent{{AtUs: f, Name: "redispatch", Node: fmt.Sprint("node-", i%3), Detail: "d"}})
			p.AddWireTrace(WireTrace{Job: fmt.Sprint(i), Benchmark: "LSTM", Spans: []WireSpan{
				{Kind: "phase", Name: "exec", Node: "n", StartUs: f, EndUs: g},
				{Kind: "", Name: "zero", Node: "n", StartUs: f, EndUs: f},
				{Kind: "kernel", Name: "tiny", Node: "n", StartUs: f, EndUs: math.Nextafter(f, math.Inf(1)), Detail: "seq 0"},
			}})
		}
		p.AddWireTrace(WireTrace{Job: "empty", Benchmark: "STEM"})
	})

	// A time JSON cannot carry fails both exporters' Write with the same
	// error: NaN and ±Inf at either end of a span or on a fleet event, and
	// a duration that overflows. (A NaN end or a -Inf end is an instant,
	// whose end is never written.)
	unsupported := map[string]func(perfettoExporter){
		"overflowing duration": func(p perfettoExporter) {
			p.AddWireTrace(WireTrace{Job: "1", Spans: []WireSpan{{Name: "s", StartUs: -math.MaxFloat64, EndUs: math.MaxFloat64}}})
		},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		unsupported[fmt.Sprint("fleet ", bad)] = func(p perfettoExporter) {
			p.Job(JobEvent{At: 5, Kind: JobArrive, Job: 1, Queue: 0})
			p.AddFleetEvents([]FleetEvent{{AtUs: 1, Name: "a", Node: "n"}, {AtUs: bad, Name: "b", Node: "n"}})
		}
		unsupported[fmt.Sprint("span start ", bad)] = func(p perfettoExporter) {
			p.AddWireTrace(WireTrace{Job: "1", Spans: []WireSpan{{Name: "s", StartUs: bad, EndUs: 3}}})
		}
	}
	unsupported["span end +Inf"] = func(p perfettoExporter) {
		p.AddWireTrace(WireTrace{Job: "1", Spans: []WireSpan{{Name: "s", StartUs: 3, EndUs: math.Inf(1)}}})
	}
	for name, feed := range unsupported {
		if err := matchPerfetto(t, name, feed); err == nil {
			t.Errorf("%s: Write succeeded, want an unsupported-value error", name)
		}
	}
	for _, end := range []float64{math.NaN(), math.Inf(-1)} {
		match(fmt.Sprint("span end ", end), func(p perfettoExporter) {
			p.AddWireTrace(WireTrace{Job: "1", Spans: []WireSpan{{Name: "s", StartUs: 3, EndUs: end}}})
		})
	}
}

// fuzzStream turns fuzz bytes into exporter calls; an exhausted stream
// reads as zeros.
type fuzzStream []byte

func (s *fuzzStream) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	c := (*s)[0]
	*s = (*s)[1:]
	return c
}

func (s *fuzzStream) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

// int is mostly a small ID, sometimes negative, sometimes any int.
func (s *fuzzStream) int() int {
	switch c := s.byte(); {
	case c < 200:
		return int(c % 20)
	case c < 240:
		return -int(c % 5)
	default:
		return int(s.u64())
	}
}

// time is mostly nanoseconds to milliseconds, sometimes any sim.Time.
func (s *fuzzStream) time() sim.Time {
	switch c := s.byte(); {
	case c < 128:
		return sim.Time(c) * sim.Time(1+int(s.byte())*997)
	case c < 250:
		return -sim.Time(c)
	default:
		return sim.Time(s.u64())
	}
}

// float is any float64 bit pattern, NaN and ±Inf included, or a value near
// encoding/json's 'e'-form thresholds.
func (s *fuzzStream) float() float64 {
	switch c := s.byte(); {
	case c < 64:
		return float64(c) / 8
	case c < 128:
		return []float64{1e-7, 1e-6, 9.99e-7, 1e21, 9.99e20, -1e21, 0.5e-6}[c%7] * float64(1+c%3)
	default:
		return math.Float64frombits(s.u64())
	}
}

// str is one of the awkward strings or raw fuzz bytes.
func (s *fuzzStream) str() string {
	n := int(s.byte())
	if n < 128 {
		return awkward[n%len(awkward)]
	}
	n %= 12
	if n > len(*s) {
		n = len(*s)
	}
	out := string((*s)[:n])
	*s = (*s)[n:]
	return out
}

func (s *fuzzStream) feed(p perfettoExporter) {
	for len(*s) > 0 {
		switch s.byte() % 10 {
		case 0, 1:
			p.Job(JobEvent{At: s.time(), Kind: JobEventKind(s.int()), Job: s.int(), Queue: s.int(),
				Deadline: s.time(), Met: s.byte()%2 == 0})
		case 2:
			p.Admission(AdmissionDecision{At: s.time(), Job: s.int(), Accepted: s.byte()%2 == 0,
				HasTerms: s.byte()%4 != 0, QueueDelay: s.time(), HoldTime: s.time(), Deadline: s.time()})
		case 3:
			p.Sample(JobSample{At: s.time(), Job: s.int(), Queue: s.int(), HasLaxity: s.byte()%4 != 0, Laxity: s.time()})
		case 4:
			p.KernelStart(KernelStart{At: s.time(), Job: s.int(), Queue: s.int(), Seq: s.int(), Kernel: s.str()})
		case 5, 6:
			p.KernelDone(KernelDone{At: s.time(), Job: s.int(), Queue: s.int(), Seq: s.int(), Kernel: s.str(), Start: s.time()})
		case 7:
			evs := make([]FleetEvent, s.byte()%4)
			for i := range evs {
				evs[i] = FleetEvent{AtUs: s.float(), Name: s.str(), Node: s.str(), Detail: s.str()}
			}
			p.AddFleetEvents(evs)
		case 8:
			tr := WireTrace{Job: s.str(), Benchmark: s.str(), Spans: make([]WireSpan, s.byte()%4)}
			for i := range tr.Spans {
				tr.Spans[i] = WireSpan{Kind: s.str(), Name: s.str(), Node: s.str(),
					StartUs: s.float(), EndUs: s.float(), Detail: s.str()}
			}
			p.AddWireTrace(tr)
		default:
			p.Epoch(EpochSnapshot{At: s.time()})
		}
	}
}

// FuzzPerfettoMatchesReference decodes the input into a stream of probe
// callbacks and export-time additions and requires the exporter to write
// refPerfetto's bytes (or fail with its error).
func FuzzPerfettoMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 4, 5, 1, 0, 3, 1, 5, 7, 1, 2, 3, 9, 2})
	f.Add([]byte("\x07\x03\x40\x81\x82\x00\x08\x02\x80abc\x05\x01\x02\x03\x04\x05\x06"))
	f.Add([]byte("\x03\x10\x02\x03\x01\x05\x50\x05\x02\x07\x01\x02\x83<\"\\\xff\x08\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = matchPerfetto(t, "fuzz", func(p perfettoExporter) {
			s := fuzzStream(data)
			s.feed(p)
		})
	})
}
