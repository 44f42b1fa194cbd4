package obs

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
)

// PhaseShare is one phase of a job's slack budget: its measured duration
// and the fraction of the job's slack (deadline − arrival) it consumed.
type PhaseShare struct {
	Name       string  `json:"name"`
	DurUs      float64 `json:"dur_us"`
	PctOfSlack float64 `json:"pct_of_slack"`
}

// Attribution is the slack-budget decomposition of one finished trace: the
// phase shares in timeline order and, when the job missed its deadline, a
// dominant-cause verdict with a human-readable explanation.
type Attribution struct {
	Phases []PhaseShare `json:"phases"`
	Cause  string       `json:"cause,omitempty"`  // miss-kind taxonomy name; "" when met
	Detail string       `json:"detail,omitempty"` // e.g. "queued 71% of slack behind 3 admitted jobs"
}

// Attribute decomposes a finished trace's latency into its phase spans and,
// for misses, names the dominant cause. The verdict reproduces the
// metrics.ClassifyMiss decision tree from measured span data alone:
// rejected and cancelled are deliberate policy outcomes; faulted means the
// CPU fallback path ran; starved means the job never dispatched before its
// deadline; otherwise queued when wait (parse+queue) exceeded exec, else
// contended. The two agree because for admitted jobs wait is firstDispatch −
// arrival on both sides (online submission stamps SubmitTime at arrival).
func Attribute(t WireTrace) Attribution {
	var a Attribution
	var execStart, execEnd, waitEnd float64
	hasExec := false
	behind := ""
	for _, s := range t.Spans {
		if s.Kind != SpanPhase {
			continue
		}
		dur := s.EndUs - s.StartUs
		share := PhaseShare{Name: s.Name, DurUs: dur}
		if t.SlackUs > 0 {
			share.PctOfSlack = 100 * dur / t.SlackUs
		}
		a.Phases = append(a.Phases, share)
		switch s.Name {
		case PhaseExec:
			execStart, execEnd, hasExec = s.StartUs, s.EndUs, true
		case PhaseQueue:
			waitEnd = s.EndUs
			behind = s.Detail
		case PhaseParse:
			if s.EndUs > waitEnd {
				waitEnd = s.EndUs
			}
		}
	}
	if t.Met {
		return a
	}
	switch {
	case t.State == "rejected":
		a.Cause = "rejected"
		a.Detail = "admission control refused the job"
	case t.State == "cancelled":
		a.Cause = "cancelled"
		a.Detail = "preempted and dropped mid-flight"
	case t.FellBack:
		a.Cause = "faulted"
		a.Detail = fmt.Sprintf("fault recovery moved the job to the CPU path; finished at %.0f%% of slack",
			pctOf(t.LatencyUs, t.SlackUs))
	case !hasExec || execStart > t.SlackUs:
		a.Cause = "starved"
		a.Detail = fmt.Sprintf("never dispatched before the deadline (slack %.0fus)", t.SlackUs)
	case waitEnd > execEnd-execStart:
		a.Cause = "queued"
		a.Detail = fmt.Sprintf("queued %.0f%% of slack%s", pctOf(waitEnd, t.SlackUs), suffixBehind(behind))
	default:
		a.Cause = "contended"
		a.Detail = fmt.Sprintf("dispatched at %.0f%% of slack but executed for %.0fus",
			pctOf(execStart, t.SlackUs), execEnd-execStart)
	}
	return a
}

func pctOf(v, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * v / total
}

func suffixBehind(detail string) string {
	if detail == "" {
		return ""
	}
	return " " + detail
}

// W3C traceparent propagation (version 00): laxgw stamps each outbound
// dispatch with "00-<32 hex trace-id>-<16 hex span-id>-01" and laxd adopts
// the trace-id, so one job's spans stitch across processes.

// TraceID is a W3C trace ID: 16 bytes, held as bytes from the gateway's
// journal to a node's record row and trace ring, and rendered as 32
// lower-case hex digits only on a wire or a read. The zero value means "no
// trace ID" (W3C forbids the all-zero ID) and renders as "".
type TraceID [16]byte

// IsZero reports whether id is the zero "no trace ID".
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders id as 32 lower-case hex digits, or "" for the zero ID.
func (id TraceID) String() string {
	if id.IsZero() {
		return ""
	}
	var buf [32]byte
	hex.Encode(buf[:], id[:])
	return string(buf[:])
}

// ParseTraceID parses 32 lower-case hex digits. Anything else, and the
// all-zero ID, is rejected.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if !isHex(s, 2*len(id)) {
		return TraceID{}, false
	}
	for i := range id {
		id[i] = unhex(s[2*i])<<4 | unhex(s[2*i+1])
	}
	return id, !id.IsZero()
}

// traceparentLen is the length of a version-00 traceparent:
// "00-" + 32 + "-" + 16 + "-" + 2.
const traceparentLen = 55

// FormatTraceparent renders a version-00 traceparent header value.
func FormatTraceparent(traceID TraceID, spanID string) string {
	return "00-" + traceID.String() + "-" + spanID + "-01"
}

// ParseTraceparent extracts the trace-id and parent span-id from a
// version-00 traceparent header, reading each field at its fixed offset.
// Malformed values, upper-case hex and all-zero IDs are rejected.
func ParseTraceparent(h string) (traceID TraceID, spanID string, ok bool) {
	h = strings.TrimSpace(h)
	if len(h) != traceparentLen || h[:3] != "00-" || h[35] != '-' || h[52] != '-' {
		return TraceID{}, "", false
	}
	traceID, ok = ParseTraceID(h[3:35])
	spanID = h[36:52]
	if !ok || !isHex(spanID, 16) || spanID == "0000000000000000" || !isHex(h[53:], 2) {
		return TraceID{}, "", false
	}
	return traceID, spanID, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// unhex is the value of one lower-case hex digit isHex accepted.
func unhex(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

// TraceIDFrom derives a deterministic trace ID from a seed and a job
// identifier (splitmix64 finalizers, the same generator the chaos plans
// use). Deterministic IDs keep failover reruns byte-reproducible.
func TraceIDFrom(seed, id uint64) TraceID {
	hi := mix64(seed ^ mix64(id))
	lo := mix64(id ^ mix64(seed+0x9e3779b97f4a7c15))
	if hi == 0 && lo == 0 {
		lo = 1 // all-zero trace IDs are invalid per W3C
	}
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], hi)
	binary.BigEndian.PutUint64(t[8:], lo)
	return t
}

// SpanIDFrom derives a deterministic 16-hex-char span ID.
func SpanIDFrom(seed, id uint64) string {
	v := mix64(seed + mix64(id^0xbf58476d1ce4e5b9))
	if v == 0 {
		v = 1
	}
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], v)
	return hex.EncodeToString(raw[:])
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
