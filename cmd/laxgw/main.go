// Command laxgw runs the fleet gateway: one HTTP front tier multiplexing
// arrivals across N serving nodes, routing each job to the node reporting
// the most laxity headroom, health-checking nodes with per-node circuit
// breakers, and journaling every accepted job so node death never loses one.
//
// Usage:
//
//	laxgw                                   # in-process fleet of 3 nodes
//	laxgw -gpus 5 -scheduler EDF            # bigger in-process fleet
//	laxgw -nodes http://a:8080,http://b:8080  # front real laxd daemons
//	laxgw -chaos "crash@5s;;netdrop=0.1"    # per-node chaos, ';'-separated
//	laxgw -perfetto fleet.json              # export fleet events + traces at shutdown
//	laxgw -autoscale reactive -min-nodes 1 -max-nodes 4 -node-rate 2000
//	laxgw -autoscale predictive -scale-forecast examples/scenarios/diurnal.json
//
// Endpoints: POST /v1/jobs (?wait=1 blocks until terminal; body takes an
// optional "criticality": best-effort | standard | critical), GET
// /v1/jobs/{id}, GET /v1/jobs/{id}/trace (stitched cross-process trace +
// slack attribution), GET /v1/fleet (per-node breaker states and the live
// no-lost-jobs verdict), GET /metrics, GET /healthz.
//
// -autoscale turns the in-process fleet elastic: every -scale-interval a
// control loop grows or drains nodes between -min-nodes and -max-nodes, a new
// node turning routable -scale-lag after the decision. reactive scales on
// observed damage (rejects, deadline misses); predictive sizes the fleet
// from the observed rate and, with -scale-forecast, from a scenario's rate
// schedule one lag ahead. See the laxgw_autoscale_* metrics.
//
// SIGINT/SIGTERM drains: new submissions get 503, in-process nodes finish
// their in-flight jobs (CPU fallback after the grace), then the process
// exits 0. Remote nodes are left running — they drain themselves.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"laxgpu/internal/autoscale"
	"laxgpu/internal/gateway"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// options is the command line.
type options struct {
	addr, nodes, scheduler, chaos, perfetto, autoscale, forecast string
	gpus, queue, failThreshold, minNodes, maxNodes               int
	speed, nodeRate                                              float64
	probeEvery, backoff, drain, scaleLag, scaleEvery             time.Duration
	seed                                                         int64
}

// run is the whole command behind a testable seam: flags in, exit code out.
func run(args []string, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":8090", "HTTP listen address")
	fs.StringVar(&o.nodes, "nodes", "", "comma-separated laxd base URLs to front (empty = in-process fleet)")
	fs.IntVar(&o.gpus, "gpus", 3, "in-process node count (one simulated GPU each; ignored with -nodes)")
	fs.StringVar(&o.scheduler, "scheduler", "LAX", "queue policy for in-process nodes")
	fs.Float64Var(&o.speed, "speed", 1, "simulated seconds per wall second for in-process nodes")
	fs.IntVar(&o.queue, "queue", 64, "per-node accept queue depth (in-process)")
	fs.StringVar(&o.chaos, "chaos", "", "per-node chaos specs, ';'-separated (crash@D, freeze@D+W, netdelay=D, netdrop=P)")
	fs.DurationVar(&o.probeEvery, "probe-interval", 50*time.Millisecond, "wall interval between health-probe rounds")
	fs.IntVar(&o.failThreshold, "fail-threshold", 3, "consecutive probe failures that open a node's breaker")
	fs.DurationVar(&o.backoff, "probe-backoff", 100*time.Millisecond, "initial breaker backoff between recovery probes (simulated)")
	fs.DurationVar(&o.drain, "drain", 5*time.Second, "graceful-shutdown grace before forcing CPU fallback (in-process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for chaos plans and the benchmark sampler")
	fs.StringVar(&o.perfetto, "perfetto", "", "write fleet events and recent job traces as Perfetto JSON to this file at shutdown")
	fs.StringVar(&o.autoscale, "autoscale", "", "fleet autoscaling policy: reactive | predictive (empty = fixed fleet; in-process nodes only)")
	fs.DurationVar(&o.scaleLag, "scale-lag", 500*time.Millisecond, "modeled provisioning lag before a scale-up turns routable (wall; scaled by -speed like the clock)")
	fs.DurationVar(&o.scaleEvery, "scale-interval", 50*time.Millisecond, "wall interval between autoscaler control ticks")
	fs.IntVar(&o.minNodes, "min-nodes", 1, "autoscaler floor: drains never shrink the fleet below this")
	fs.IntVar(&o.maxNodes, "max-nodes", 8, "autoscaler ceiling: scale-ups never grow active+pending nodes beyond this")
	fs.Float64Var(&o.nodeRate, "node-rate", 2000, "calibrated per-node sustainable throughput for the saturation analyzer (jobs per simulated second)")
	fs.StringVar(&o.forecast, "scale-forecast", "", "scenario file whose rate schedule the predictive policy reads one provisioning lag ahead")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if err := serveFleet(o, stderr); err != nil {
		fmt.Fprintln(stderr, "laxgw:", err)
		return 1
	}
	return 0
}

// build assembles the fleet (gateway.NewFleet) and, with -autoscale, its
// controller (autoscale.ForPolicy; nil otherwise).
func build(o options) (*gateway.Gateway, *autoscale.Controller, error) {
	var forecast autoscale.Forecast
	if o.autoscale != "" {
		if o.nodes != "" {
			return nil, nil, errors.New("-autoscale scales in-process nodes only and does not combine with -nodes")
		}
		if o.forecast != "" {
			spec, err := scenario.Load(o.forecast)
			if err != nil {
				return nil, nil, fmt.Errorf("-scale-forecast: %w", err)
			}
			forecast = spec
		}
	}
	reg := obs.NewRegistry()
	simulated := func(wall time.Duration) sim.Time { return sim.FromDuration(time.Duration(float64(wall) * o.speed)) }
	gw, err := gateway.NewFleet(o.gpus, o.nodes, gateway.InprocConfig{
		Node:        serve.NodeConfig{Scheduler: o.scheduler, Seed: o.seed},
		AcceptQueue: o.queue,
		Registry:    reg,
	}, o.chaos, gateway.Options{
		Clock:         serve.NewWallClock(o.speed),
		Registry:      reg,
		FailThreshold: o.failThreshold,
		ProbeBackoff:  simulated(o.backoff),
		Seed:          o.seed,
	})
	if err != nil || o.autoscale == "" {
		return gw, nil, err
	}
	ctrl, err := autoscale.ForPolicy(o.autoscale, autoscale.Options{
		Gateway:  gw,
		Forecast: forecast,
		Config:   autoscale.Config{NodeRate: o.nodeRate, Lag: simulated(o.scaleLag), MinNodes: o.minNodes, MaxNodes: o.maxNodes},
	})
	if err != nil {
		gw.Close(context.Background(), 0)
		return nil, nil, fmt.Errorf("-autoscale: %w", err)
	}
	return gw, ctrl, nil
}

// serveFleet builds the fleet, serves it until SIGINT/SIGTERM and drains it.
func serveFleet(o options, stderr io.Writer) error {
	gw, ctrl, err := build(o)
	if err != nil {
		return err
	}
	defer gw.Close(context.Background(), o.drain) // joins the drain below once it has begun
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: gw.Handler()}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed at hs.Shutdown below

	// Prime the health view before announcing readiness, so the first
	// arrival routes on real headroom instead of zeros.
	gw.TickProbes(gw.Clock().Now())
	loops := []func(){gw.StartProber(o.probeEvery)}
	mode := map[bool]string{false: "in-process", true: "remote"}[o.nodes != ""]
	fmt.Fprintf(stderr, "laxgw: serving on %s (%d %s node(s), %s, speed %gx, probe %v, threshold %d)\n",
		ln.Addr(), len(gw.Backends()), mode, o.scheduler, o.speed, o.probeEvery, o.failThreshold)
	if ctrl != nil {
		loops = append(loops, ctrl.Start(o.scaleEvery))
		fmt.Fprintf(stderr, "laxgw: autoscale %s (%d..%d nodes, lag %v, tick %v, node-rate %g jobs/s)\n",
			o.autoscale, o.minNodes, o.maxNodes, o.scaleLag, o.scaleEvery, o.nodeRate)
	}

	<-ctx.Done()
	stop() // restore default signal handling: a second signal kills hard
	fmt.Fprintln(stderr, "laxgw: draining...")
	for _, stopLoop := range loops {
		stopLoop()
	}
	sctx, cancel := context.WithTimeout(context.Background(), o.drain+10*time.Second)
	defer cancel()
	if err := gw.Close(sctx, o.drain); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	_ = hs.Shutdown(sctx) // best effort: every job is already terminal
	if o.perfetto != "" {
		if err := gw.Perfetto().WriteFile(o.perfetto); err != nil {
			return fmt.Errorf("perfetto export: %w", err)
		}
		fmt.Fprintf(stderr, "laxgw: wrote Perfetto trace to %s\n", o.perfetto)
	}
	fmt.Fprintln(stderr, "laxgw: drained, bye")
	return nil
}
