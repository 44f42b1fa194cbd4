package laxgpu

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"laxgpu/internal/cluster"
	"laxgpu/internal/serve"
)

// ServerOptions configure StartServer and Serve — the online serving mode,
// where the paper's admission controller (Algorithm 1) and laxity scheduler
// (Algorithm 2) run against wall-clock time behind an HTTP API instead of
// replaying a pre-scheduled trace. See cmd/laxd for the daemon wrapper and
// cmd/laxload for a matching load generator.
type ServerOptions struct {
	// Addr is the TCP listen address (default ":8080"; use "127.0.0.1:0"
	// for an ephemeral test port).
	Addr string

	// Scheduler names the per-device queue policy, one of Schedulers()
	// (default "LAX").
	Scheduler string

	// Devices is the simulated GPU count behind the frontend (default 1).
	Devices int

	// Routing selects how jobs spread over devices: "round-robin",
	// "least-loaded" or "job-hash" (default "least-loaded").
	Routing string

	// Speed maps wall time onto the simulation timeline: simulated time
	// advances Speed× as fast as real time (default 1 = real time). Values
	// above 1 compress demos; values below 1 stretch the paper's
	// microsecond-scale jobs to human-observable durations.
	Speed float64

	// AcceptQueue caps the requests waiting for or holding one device; one
	// more surfaces as HTTP 503 backpressure (default 64).
	AcceptQueue int

	// MaxPerClient caps one client's in-flight jobs; exceeding it yields
	// HTTP 429 before admission runs (default 64).
	MaxPerClient int

	// DrainGrace is how long Shutdown lets in-flight jobs finish naturally
	// before forcing them onto the CPU-fallback path (default 5s).
	DrainGrace time.Duration

	// Faults optionally degrades individual devices: entry g is a fault
	// spec (Options.Faults syntax) applied to device g.
	Faults []string

	// Seed feeds the per-device fault plans and the benchmark sampler.
	Seed int64

	// Name identifies this node in trace spans and stitched fleet traces
	// (default "laxd"). Give each daemon behind a gateway a distinct name.
	Name string

	// TraceDepth sizes the per-device finished-trace ring behind
	// GET /v1/jobs/{id}/trace (0 = default 256, negative disables tracing).
	TraceDepth int
}

// Server is a running online-serving frontend: an HTTP listener over
// simulated GPUs paced in real time. Create one with StartServer; stop it
// with Shutdown.
type Server struct {
	inner *serve.Server
	http  *http.Server
	ln    net.Listener
}

// StartServer builds the serving frontend, binds the listen address, and
// begins accepting jobs on POST /v1/jobs. The returned Server is already
// serving when the call returns; a bad address or configuration fails here,
// not later.
func StartServer(o ServerOptions) (*Server, error) {
	addr := o.Addr
	if addr == "" {
		addr = ":8080"
	}
	routing := cluster.RouteLeastLoaded
	if o.Routing != "" {
		var err error
		routing, err = cluster.ParseRoutingPolicy(o.Routing)
		if err != nil {
			return nil, err
		}
	}
	inner, err := serve.New(serve.Options{
		Scheduler:    o.Scheduler,
		Devices:      o.Devices,
		Routing:      routing,
		Speed:        o.Speed,
		AcceptQueue:  o.AcceptQueue,
		MaxPerClient: o.MaxPerClient,
		DrainGrace:   o.DrainGrace,
		Faults:       o.Faults,
		Seed:         o.Seed,
		Name:         o.Name,
		TraceDepth:   o.TraceDepth,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	inner.Start()
	s := &Server{
		inner: inner,
		http:  &http.Server{Handler: inner.Handler()},
		ln:    ln,
	}
	go func() {
		// ErrServerClosed is the normal Shutdown signal; anything else has
		// nowhere useful to go once the accept loop dies, so it is dropped —
		// clients see connection errors and Shutdown still drains the jobs.
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base HTTP URL.
func (s *Server) URL() string { return fmt.Sprintf("http://%s", s.Addr()) }

// Shutdown gracefully stops the server: new submissions are refused, every
// in-flight job reaches a terminal state (naturally within the drain grace,
// or forced onto the CPU-fallback path), and the HTTP listener closes. It
// returns the context's error if ctx expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.inner.Shutdown(ctx)
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	return err
}

// Serve runs an online-serving frontend until ctx is cancelled, then drains
// it gracefully — the blocking convenience cmd/laxd wraps. The drain is
// bounded by DrainGrace plus a small margin, so a SIGTERM-driven context
// cancellation always terminates.
func Serve(ctx context.Context, o ServerOptions) error {
	s, err := StartServer(o)
	if err != nil {
		return err
	}
	<-ctx.Done()
	grace := o.DrainGrace
	if grace <= 0 {
		grace = 5 * time.Second
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace+10*time.Second)
	defer cancel()
	return s.Shutdown(sctx)
}
