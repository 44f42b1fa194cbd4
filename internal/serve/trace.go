package serve

import (
	"net/http"
	"sort"
	"strconv"

	"laxgpu/internal/obs"
)

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's recorded
// timeline plus its slack-budget attribution. 404 until the recorder has
// seen the job (or after ring eviction), and always when tracing is off.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad job id")
		return
	}
	st, ok := s.records.get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	if st.TraceID == "" || st.Device < 0 || st.Device >= len(s.hosts) || s.opts.TraceDepth < 0 {
		WriteError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	t, ok := s.hosts[st.Device].Trace(st.TraceID)
	if !ok {
		WriteError(w, http.StatusNotFound, "trace not recorded (evicted or never admitted)")
		return
	}
	wire := t.Wire(s.opts.Name)
	wire.Job = strconv.FormatInt(st.ID, 10) // server-wide ID, not the node-local one
	WriteJSON(w, http.StatusOK, obs.TraceDoc{Trace: wire, Attribution: obs.Attribute(wire)})
}

// handleTraces serves GET /v1/traces?n=K: the newest K finished traces
// across every device (default 20), newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n, ok := TraceListingSize(w, r)
	if !ok {
		return
	}
	var all []obs.JobTrace
	for _, h := range s.hosts {
		all = append(all, h.RecentTraces(n)...)
	}
	// Devices share one clock, so finish instants are comparable.
	sort.Slice(all, func(i, j int) bool { return all[i].Finish > all[j].Finish })
	if len(all) > n {
		all = all[:n]
	}
	docs := make([]obs.TraceDoc, 0, len(all))
	for _, t := range all {
		wire := t.Wire(s.opts.Name)
		docs = append(docs, obs.TraceDoc{Trace: wire, Attribution: obs.Attribute(wire)})
	}
	WriteJSON(w, http.StatusOK, docs)
}
