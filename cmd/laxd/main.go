// Command laxd serves the paper's deadline-aware offloading stack over HTTP:
// wall-clock arrivals run through Algorithm 1 admission on live queue state
// (202 admitted, 429 rejected-to-CPU with a Retry-After drain estimate) and
// admitted jobs execute on real-time-paced simulated GPUs under the chosen
// scheduler.
//
// Usage:
//
//	laxd                                   # LAX on one device at :8080
//	laxd -addr :9000 -scheduler EDF        # another port and policy
//	laxd -gpus 4 -routing least-loaded     # multi-device fleet
//	laxd -speed 100                        # compress time 100x for demos
//	laxd -faults "retire=4@2s;abort=0.05"  # per-device fault specs, ';'-separated
//	laxd -queue 256 -drain 10s             # accept-queue depth, shutdown grace
//
// Endpoints: POST /v1/jobs (?wait=1 blocks until terminal), GET /v1/jobs/{id},
// GET /v1/jobs/{id}/trace (per-job timeline + slack attribution),
// GET /v1/traces, GET /v1/events (SSE), GET /v1/benchmarks,
// GET /metrics (Prometheus), GET /healthz.
//
// SIGINT/SIGTERM triggers a graceful drain: new submissions get 503, in-flight
// jobs finish (or fall back to the CPU once the grace expires), then the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"laxgpu"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the whole command behind a testable seam: flags in, exit code out.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "HTTP listen address")
		scheduler = fs.String("scheduler", "LAX", "queue scheduling policy (see laxsim -list or GET /v1/benchmarks)")
		gpus      = fs.Int("gpus", 1, "simulated GPU count behind the frontend")
		routing   = fs.String("routing", "least-loaded", "device routing: round-robin, least-loaded or job-hash")
		speed     = fs.Float64("speed", 1, "simulated seconds per wall second (1 = real time)")
		queue     = fs.Int("queue", 64, "per-device accept queue depth (full = HTTP 503)")
		perClient = fs.Int("max-per-client", 64, "max in-flight jobs per client address (exceeded = HTTP 429)")
		drain     = fs.Duration("drain", 5*time.Second, "graceful-shutdown grace before forcing CPU fallback")
		faults    = fs.String("faults", "", "per-device fault specs, ';'-separated (e.g. \"retire=4@2s;abort=0.05\")")
		seed      = fs.Int64("seed", 1, "seed for fault plans and the benchmark sampler")
		name      = fs.String("name", "laxd", "node name stamped on trace spans (distinct per daemon behind laxgw)")
		traceDeep = fs.Int("trace-depth", 0, "finished-trace ring depth per device (0 = 256, negative disables tracing)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	var specs []string
	if *faults != "" {
		specs = strings.Split(*faults, ";")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := laxgpu.StartServer(laxgpu.ServerOptions{
		Addr:         *addr,
		Scheduler:    *scheduler,
		Devices:      *gpus,
		Routing:      *routing,
		Speed:        *speed,
		AcceptQueue:  *queue,
		MaxPerClient: *perClient,
		DrainGrace:   *drain,
		Faults:       specs,
		Seed:         *seed,
		Name:         *name,
		TraceDepth:   *traceDeep,
	})
	if err != nil {
		fmt.Fprintln(stderr, "laxd:", err)
		return 1
	}
	fmt.Fprintf(stderr, "laxd: serving on %s (%s, %d device(s), %s routing, speed %gx)\n",
		srv.Addr(), *scheduler, *gpus, *routing, *speed)

	<-ctx.Done()
	stop() // restore default signal handling: a second signal kills hard
	fmt.Fprintln(stderr, "laxd: draining...")

	sctx, cancel := context.WithTimeout(context.Background(), *drain+10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, "laxd: shutdown:", err)
		return 1
	}
	fmt.Fprintln(stderr, "laxd: drained, bye")
	return 0
}
