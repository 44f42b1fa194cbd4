package obs

// Perfetto process IDs for export-time additions (probe-driven tracks use
// pidQueues/pidLaxity): fleet-level instant events on one process, stitched
// per-job trace waterfalls on another.
const (
	pidFleet = 3
	pidJobs  = 4
)

// FleetEvent is one gateway-level instant: a breaker transition, a failover
// re-dispatch or a CPU fallback. AtUs is microseconds on the gateway's own
// clock (sim time zero = process start).
type FleetEvent struct {
	AtUs   float64 `json:"at_us"`
	Name   string  `json:"name"` // EventBreaker, EventRedispatch, EventFallback
	Node   string  `json:"node"`
	Detail string  `json:"detail,omitempty"`
}

// fleetTrack lazily names the fleet-event process and one track per node.
func (p *Perfetto) fleetTrack(node string) int {
	if p.fleetTids == nil {
		p.fleetTids = make(map[string]int)
		p.add(rowProcess).job = pidFleet
	}
	tid, ok := p.fleetTids[node]
	if !ok {
		tid = len(p.fleetTids)
		p.fleetTids[node] = tid
		r := p.add(rowNodeName)
		r.tid, r.str = tid, node
	}
	return tid
}

// AddFleetEvents appends gateway-level instants (breaker trips and
// recoveries, failover re-dispatches, CPU fallbacks) as Perfetto instant
// events, one track per node. Export-time only: runs that never call it
// produce byte-identical output.
func (p *Perfetto) AddFleetEvents(evs []FleetEvent) {
	for _, e := range evs {
		tid := p.fleetTrack(e.Node)
		r := p.add(rowFleet)
		r.tid, r.str, r.seq, r.us[0] = tid, e.Node, len(p.strs), e.AtUs
		p.strs = append(p.strs, e.Name, e.Detail)
		p.checkFloat(e.AtUs)
	}
}

// AddWireTrace appends one stitched per-job trace as a Perfetto waterfall:
// phase and kernel spans become complete ("X") slices, instants stay
// instants, on one track per trace. Span times are microseconds relative to
// the job's arrival, so each job's waterfall starts at ts 0 on its own
// track. Export-time only, like AddFleetEvents.
func (p *Perfetto) AddWireTrace(t WireTrace) {
	if p.traceTid == 0 {
		p.add(rowProcess).job = pidJobs
	}
	p.traceTid++
	r := p.add(rowTraceName)
	r.tid, r.str, r.seq = p.traceTid, t.Job, len(p.strs)
	p.strs = append(p.strs, t.Benchmark)
	for _, s := range t.Spans {
		r := p.add(rowSpan)
		r.tid, r.str, r.seq, r.us[0] = p.traceTid, s.Name, len(p.strs), s.StartUs
		p.strs = append(p.strs, s.Kind, s.Node, s.Detail)
		p.checkFloat(s.StartUs)
		if s.EndUs > s.StartUs {
			r.flag, r.us[1] = true, s.EndUs-s.StartUs
			p.checkFloat(r.us[1])
		}
	}
}
