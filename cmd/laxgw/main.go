// Command laxgw runs the fleet gateway: one HTTP front tier multiplexing
// arrivals across N serving nodes, routing each job to the node reporting
// the most laxity headroom, health-checking nodes with per-node circuit
// breakers, and journaling every accepted job so node death never loses one
// (unfinished jobs of a dead node re-dispatch to survivors or finish on the
// CPU fallback).
//
// Usage:
//
//	laxgw                                   # in-process fleet of 3 nodes
//	laxgw -gpus 5 -scheduler EDF            # bigger in-process fleet
//	laxgw -nodes http://a:8080,http://b:8080  # front real laxd daemons
//	laxgw -chaos "crash@5s;;netdrop=0.1"    # per-node chaos, ';'-separated
//	laxgw -probe-interval 50ms -fail-threshold 3
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
// -autoscale turns the in-process fleet elastic: a control loop analyzes
// saturation every -scale-interval and grows or drains nodes between
// -min-nodes and -max-nodes, with -scale-lag of modeled provisioning delay
// before a new node turns routable. The reactive policy scales on observed
// damage (admission rejects, deadline misses); predictive sizes the fleet
// from the observed rate — and, with -scale-forecast, from a scenario's
// published rate schedule one lag ahead. Progress is visible as the
// laxgw_autoscale_* metric family and scale-up/drain instants on the fleet
// timeline.
//
// SIGINT/SIGTERM drains: new submissions get 503, in-process nodes finish
// their in-flight jobs (CPU fallback after the grace), then the process
// exits 0. Remote nodes are left running — they drain themselves.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"laxgpu/internal/autoscale"
	"laxgpu/internal/faults"
	"laxgpu/internal/gateway"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload/scenario"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "HTTP listen address")
		nodes     = flag.String("nodes", "", "comma-separated laxd base URLs to front (empty = in-process fleet)")
		gpus      = flag.Int("gpus", 3, "in-process node count (one simulated GPU each; ignored with -nodes)")
		scheduler = flag.String("scheduler", "LAX", "queue policy for in-process nodes")
		speed     = flag.Float64("speed", 1, "simulated seconds per wall second for in-process nodes")
		queue     = flag.Int("queue", 64, "per-node accept queue depth (in-process)")
		chaos     = flag.String("chaos", "", "per-node chaos specs, ';'-separated (crash@D, freeze@D+W, netdelay=D, netdrop=P)")
		probeIv   = flag.Duration("probe-interval", 50*time.Millisecond, "wall interval between health-probe rounds")
		failThr   = flag.Int("fail-threshold", 3, "consecutive probe failures that open a node's breaker")
		backoff   = flag.Duration("probe-backoff", 100*time.Millisecond, "initial breaker backoff between recovery probes (simulated)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-shutdown grace before forcing CPU fallback (in-process)")
		seed      = flag.Int64("seed", 1, "seed for chaos plans and the benchmark sampler")
		perfetto  = flag.String("perfetto", "", "write fleet events and recent job traces as Perfetto JSON to this file at shutdown")

		autoPol  = flag.String("autoscale", "", "fleet autoscaling policy: reactive | predictive (empty = fixed fleet; in-process nodes only)")
		scaleLag = flag.Duration("scale-lag", 500*time.Millisecond, "modeled provisioning lag before a scale-up turns routable (wall; scaled by -speed like the clock)")
		scaleIv  = flag.Duration("scale-interval", 50*time.Millisecond, "wall interval between autoscaler control ticks")
		minNodes = flag.Int("min-nodes", 1, "autoscaler floor: drains never shrink the fleet below this")
		maxNodes = flag.Int("max-nodes", 8, "autoscaler ceiling: scale-ups never grow active+pending nodes beyond this")
		nodeRate = flag.Float64("node-rate", 2000, "calibrated per-node sustainable throughput for the saturation analyzer (jobs per simulated second)")
		scaleFc  = flag.String("scale-forecast", "", "scenario file whose rate schedule the predictive policy reads one provisioning lag ahead")
	)
	flag.Parse()

	clock := serve.NewWallClock(*speed)
	reg := obs.NewRegistry()

	var specs []string
	if *chaos != "" {
		specs = strings.Split(*chaos, ";")
	}

	// Every in-process node, initial or grown by the autoscaler, comes from
	// here; k numbers them so each draws its own fault/sampler seed.
	mkNode := func(name string, k int) (*gateway.InprocBackend, error) {
		return gateway.NewInprocBackend(gateway.InprocConfig{
			Name:        name,
			Node:        serve.NodeConfig{Scheduler: *scheduler, Seed: *seed + int64(k)},
			Clock:       clock,
			AcceptQueue: *queue,
			Registry:    reg,
		})
	}

	var backends []gateway.Backend
	var closers []func()
	if *nodes != "" {
		for i, u := range strings.Split(*nodes, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			rb := gateway.NewRemoteBackend(fmt.Sprintf("node%d", i), u, nil)
			closers = append(closers, rb.Close)
			backends = append(backends, rb)
		}
	} else {
		if *gpus < 1 {
			*gpus = 1
		}
		for g := 0; g < *gpus; g++ {
			ib, err := mkNode(fmt.Sprintf("node%d", g), g)
			if err != nil {
				fatal(err)
			}
			backends = append(backends, ib)
		}
	}
	if len(specs) > len(backends) {
		fatal(fmt.Errorf("%d chaos specs for %d nodes", len(specs), len(backends)))
	}
	for g, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		ns, err := faults.ParseNodeSpec(spec)
		if err != nil {
			fatal(err)
		}
		backends[g] = gateway.NewChaosBackend(backends[g], faults.NewNodePlan(ns, *seed+int64(g)), clock)
	}

	gw, err := gateway.New(gateway.Options{
		Backends:      backends,
		Clock:         clock,
		Registry:      reg,
		FailThreshold: *failThr,
		ProbeBackoff:  sim.FromDuration(time.Duration(float64(*backoff) * *speed)),
		Seed:          *seed,
	})
	if err != nil {
		fatal(err)
	}

	// Elastic fleet: the controller analyzes saturation on a wall ticker and
	// grows/drains in-process nodes. The node factory mints simulated nodes,
	// so autoscaling and remote -nodes don't combine.
	var ctrl *autoscale.Controller
	if *autoPol != "" {
		if *nodes != "" {
			fatal(fmt.Errorf("-autoscale scales in-process nodes only and does not combine with -nodes"))
		}
		var pol autoscale.Policy
		switch *autoPol {
		case "reactive":
			pol = &autoscale.Reactive{}
		case "predictive":
			pol = &autoscale.Predictive{}
		default:
			fatal(fmt.Errorf("unknown -autoscale policy %q (want reactive or predictive)", *autoPol))
		}
		var fc autoscale.Forecast
		if *scaleFc != "" {
			f, err := os.Open(*scaleFc)
			if err != nil {
				fatal(err)
			}
			spec, err := scenario.Parse(f)
			f.Close()
			if err != nil {
				fatal(fmt.Errorf("-scale-forecast %s: %w", *scaleFc, err))
			}
			fc = spec
		}
		grown := len(backends)
		ctrl, err = autoscale.New(autoscale.Options{
			Gateway:  gw,
			Policy:   pol,
			Forecast: fc,
			Config: autoscale.Config{
				NodeRate: *nodeRate,
				Lag:      sim.FromDuration(time.Duration(float64(*scaleLag) * *speed)),
				MinNodes: *minNodes,
				MaxNodes: *maxNodes,
			},
			Factory: func(name string) (gateway.Backend, error) {
				grown++
				return mkNode(name, grown)
			},
			OnRetire: func(name string, be gateway.Backend) {
				// A drained node's simulation can stop as soon as the
				// gateway retires it; don't stall the control tick on it.
				if ib, ok := be.(*gateway.InprocBackend); ok {
					go ib.Shutdown(time.Second)
				}
			},
		})
		if err != nil {
			fatal(err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: gw.Handler()}
	go func() { _ = hs.Serve(ln) }()

	// Prime the health view before announcing readiness, so the first
	// arrival routes on real headroom instead of zeros.
	gw.TickProbes(clock.Now())
	stopProber := gw.StartProber(*probeIv)

	// The autoscaler shares the prober's pattern: one goroutine, one ticker,
	// explicit Tick instants off the shared clock.
	stopScale := func() {}
	if ctrl != nil {
		ctrl.Tick(clock.Now())
		tick := time.NewTicker(*scaleIv)
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					ctrl.Tick(clock.Now())
				}
			}
		}()
		stopScale = func() { tick.Stop(); close(done); wg.Wait() }
	}

	mode := "in-process"
	if *nodes != "" {
		mode = "remote"
	}
	fmt.Fprintf(os.Stderr, "laxgw: serving on %s (%d %s node(s), %s, speed %gx, probe %v, threshold %d)\n",
		ln.Addr(), len(backends), mode, *scheduler, *speed, *probeIv, *failThr)
	if ctrl != nil {
		fmt.Fprintf(os.Stderr, "laxgw: autoscale %s (%d..%d nodes, lag %v, tick %v, node-rate %g jobs/s)\n",
			*autoPol, *minNodes, *maxNodes, *scaleLag, *scaleIv, *nodeRate)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "laxgw: draining...")

	stopScale()
	stopProber()
	sctx, cancel := context.WithTimeout(context.Background(), *drain+10*time.Second)
	defer cancel()
	if err := gw.Shutdown(sctx, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "laxgw: shutdown:", err)
		os.Exit(1)
	}
	_ = hs.Shutdown(sctx)
	for _, c := range closers {
		c()
	}
	if *perfetto != "" {
		if err := writePerfetto(gw, *perfetto); err != nil {
			fmt.Fprintln(os.Stderr, "laxgw: perfetto export:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "laxgw: wrote Perfetto trace to %s\n", *perfetto)
	}
	fmt.Fprintln(os.Stderr, "laxgw: drained, bye")
}

// writePerfetto exports the gateway's fleet events (breaker transitions,
// failover re-dispatches, CPU fallbacks) and the stitched traces of the most
// recent terminal jobs as Chrome trace-event JSON for ui.perfetto.dev.
func writePerfetto(gw *gateway.Gateway, path string) error {
	p := obs.NewPerfetto()
	p.AddFleetEvents(gw.FleetEvents())
	jobs := gw.FleetJobs()
	const maxTraces = 64
	if len(jobs) > maxTraces {
		jobs = jobs[len(jobs)-maxTraces:]
	}
	for _, fj := range jobs {
		if fj.Terminal == "" {
			continue
		}
		if doc, ok := gw.StitchedTrace(fj.ID); ok {
			p.AddWireTrace(doc.Trace)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.Write(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "laxgw:", err)
	os.Exit(1)
}
