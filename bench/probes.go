package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"laxgpu"
	"laxgpu/internal/cluster"
	"laxgpu/internal/cp"
	"laxgpu/internal/gateway"
	"laxgpu/internal/gpu"
	"laxgpu/internal/harness"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct{ name, unit, better string }

// endToEndSpecs are the untraced run's metrics: what a user of the system
// sees. Every workload reports every one.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"deadline_met_share", "ratio", "higher"},
	{"alloc_bytes_per_job", "B", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"op_us_p50", "us", "lower"},
}

// perLayerSpecs are the traced run's metrics, <package>.<metric>. The first
// six are end-to-end quantities that exist on one or two workloads only (or
// read zero when all is well), which the driver's every-metric-on-every-
// workload rule keeps out of the end-to-end set.
var perLayerSpecs = []metricSpec{
	{"failed_share", "ratio", "lower"},
	{"retained_bytes_per_job", "B", "lower"},
	{"submit_us_p50", "us", "lower"},
	{"submit_us_p99", "us", "lower"},
	{"job_wall_ms_p50", "ms", "lower"},
	{"job_wall_ms_p99", "ms", "lower"},

	{"workload.scenario_parse_us", "us", "lower"},
	{"workload.generate_us_per_job", "us", "lower"},
	{"workload.sample_ns", "ns", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.events_per_job", "count", "lower"},
	{"gpu.ns_per_wg", "ns", "lower"},
	{"gpu.wgs_per_job", "count", "lower"},
	{"sched.lax_reprioritize_ns", "ns", "lower"},
	{"sched.admission_us.0", "us", "lower"},
	{"sched.admission_us.32", "us", "lower"},
	{"sched.admission_us.128", "us", "lower"},
	{"sched.cell_ms_p50.LAX", "ms", "lower"},
	{"sched.cell_ms_p50.SRF", "ms", "lower"},
	{"sched.cell_ms_p50.EDF", "ms", "lower"},
	{"sched.cell_ms_p50.RR", "ms", "lower"},
	{"sched.cell_ms_p50.BAT", "ms", "lower"},
	{"cp.full_run_ms", "ms", "lower"},
	{"cp.full_run_allocs", "count", "lower"},
	{"cp.new_system_us", "us", "lower"},
	{"cp.online_advance_ns_per_event", "ns", "lower"},
	{"cp.unfinished_scan_us", "us", "lower"},
	{"harness.pool_width", "count", "higher"},
	{"harness.sweep_speedup", "ratio", "higher"},
	{"harness.dispatch_overhead_share", "ratio", "lower"},
	{"obs.probed_run_overhead_share", "ratio", "lower"},
	{"obs.span_bytes_per_job", "B", "lower"},
	{"obs.trace_stitch_us", "us", "lower"},
	{"verify.checked_run_overhead_share", "ratio", "lower"},
	{"verify.fleet_check_ms", "ms", "lower"},
	{"cluster.route_pick_ns.2", "ns", "lower"},
	{"cluster.route_pick_ns.8", "ns", "lower"},
	{"serve.driver_call_us", "us", "lower"},
	{"serve.node_submit_us", "us", "lower"},
	{"serve.http_submit_handler_us", "us", "lower"},
	{"serve.http_submit_us_p50", "us", "lower"},
	{"serve.status_get_us", "us", "lower"},
	{"serve.backpressure_503", "count", "lower"},
	{"gateway.submit_stub_us", "us", "lower"},
	{"gateway.submit_stub_allocs", "count", "lower"},
	{"gateway.backend_submit_us_p50", "us", "lower"},
	{"gateway.self_submit_us_p50", "us", "lower"},
	{"gateway.probe_round_us_p50", "us", "lower"},
	{"gateway.probe_round_us_last_decile", "us", "lower"},
	{"gateway.ageing_ratio", "ratio", "higher"},
	{"gateway.http_handler_us", "us", "lower"},
	{"gateway.remote_hop_us_p50", "us", "lower"},
	{"gateway.completion_lag_ms_p50", "ms", "lower"},
	{"gateway.polls_per_job", "1/job", "lower"},
	{"gateway.accepted_share", "ratio", "higher"},
	{"gateway.shed_share", "ratio", "lower"},
	{"gateway.duplicates", "count", "lower"},
	{"gateway.journal_entries", "count", "lower"},
	{"bench.trace_overhead_share", "ratio", "lower"},
	{"bench.generator_lag_us_p99", "us", "lower"},
}

// prober runs the isolated layer probes: each times public calls into one
// layer, on inputs that do not depend on the workload, so a layer's number
// reads the same beside any workload's trace.
type prober struct {
	cfg  config
	m    metricSet
	t    *tally
	lib  *workload.Library
	lstm *workload.Benchmark
	set  *workload.JobSet // 128 LSTM jobs at the high rate: the historical FullRun input
}

// n scales an iteration count down for the unit-test miniature.
func (p *prober) n(full int) int {
	if p.cfg.mini {
		return max(full/50, 2)
	}
	return full
}

// perOp times n calls of fn and returns nanoseconds per call.
func perOp(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// medianMs times fn reps times and returns the median in milliseconds.
func medianMs(reps int, fn func()) float64 {
	var s samples
	for i := 0; i < reps; i++ {
		s = append(s, perOp(1, fn)/1e6)
	}
	return s.median()
}

func runProbes(cfg config, m metricSet, t *tally) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	lstm, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.op(false, "probes: %v", err)
		return
	}
	jobs := workload.DefaultJobCount
	if cfg.mini {
		jobs = 16
	}
	p := &prober{cfg: cfg, m: m, t: t, lib: lib, lstm: lstm, set: lstm.Generate(lib, workload.HighRate, jobs, cfg.seed)}
	for _, probe := range []struct {
		layer string
		run   func() error
	}{
		{"workload", p.workload}, {"sim", p.sim}, {"gpu", p.gpu}, {"sched", p.sched}, {"cp", p.cp},
		{"harness", p.harness}, {"obs+verify", p.observers}, {"cluster", p.cluster}, {"serve", p.serve},
		{"gateway", p.gateway},
	} {
		sp := cfg.tr.begin(spProbe, 50, -1, -1)
		err := probe.run()
		cfg.tr.end(sp)
		t.op(err == nil, "probe %s: %v", probe.layer, err)
	}
}

func (p *prober) workload() error {
	raw, err := files.ReadFile("scenarios/three-tenant.json")
	if err != nil {
		return err
	}
	var spec *scenario.Spec
	n := p.n(200)
	parse := perOp(n, func() { spec, err = scenario.Parse(bytes.NewReader(raw)) })
	if err != nil {
		return err
	}
	p.m.put("workload.scenario_parse_us", "us", parse/1e3, n)
	var set *workload.JobSet
	n = p.n(50)
	gen := perOp(n, func() { set, err = spec.Generate(p.lib, p.cfg.seed) })
	if err != nil {
		return err
	}
	p.m.put("workload.generate_us_per_job", "us", gen/1e3/float64(len(set.Jobs)), n*len(set.Jobs))

	// Benchmark.Sample runs under the gateway's lock on every submission.
	rng := sim.NewRNG(p.cfg.seed)
	n = p.n(100_000)
	p.m.put("workload.sample_ns", "ns", perOp(n, func() { p.lstm.Sample(p.lib, rng, 0, 0) }), n)
	return nil
}

// sim measures raw schedule+fire churn: one event chain rescheduling itself.
func (p *prober) sim() error {
	n := p.n(2_000_000)
	eng := sim.NewEngine()
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired < n {
			eng.After(10, tick)
		}
	}
	eng.Schedule(0, tick)
	p.m.put("sim.ns_per_event", "ns", perOp(1, eng.Run)/float64(n), n)
	return nil
}

// gpu measures workgroup dispatch+complete on a saturated device.
func (p *prober) gpu() error {
	n := p.n(400_000)
	eng := sim.NewEngine()
	dev := gpu.New(gpu.DefaultConfig(), eng)
	desc := &gpu.KernelDesc{
		Name: "bench", NumWGs: n, ThreadsPerWG: 256,
		BaseWGTime: sim.Microsecond, MemIntensity: 0.5, InstPerThread: 100,
	}
	inst := gpu.NewKernelInstance(desc, 0, 0, 0)
	inst.MarkReady(0)
	dev.OnWGComplete(func(*gpu.KernelInstance) { dev.TryDispatch(inst, -1) })
	ns := perOp(1, func() {
		dev.TryDispatch(inst, -1)
		eng.Run()
	})
	p.m.put("gpu.ns_per_wg", "ns", ns/float64(n), n)
	return nil
}

func (p *prober) fullRun(pol cp.Policy, probe obs.Probe) *cp.System {
	sys := cp.NewSystem(cp.DefaultSystemConfig(), p.set, pol)
	if probe != nil {
		sys.SetProbe(probe)
	}
	sys.Run()
	return sys
}

// warmNode returns an online LAX node whose profiling table has seen real
// LSTM kernels — a cold table estimates every job at its whole deadline and
// admits almost nothing — and a submit func for LSTM jobs with a deadline
// generous enough that 128 of them pass Algorithm 1 together.
func (p *prober) warmNode() (*serve.Node, func() *cp.JobRun, error) {
	node, err := serve.NewNode(serve.NodeConfig{Scheduler: "LAX"})
	if err != nil {
		return nil, nil, err
	}
	rng := sim.NewRNG(p.cfg.seed)
	submit := func() *cp.JobRun {
		j := p.lstm.Sample(p.lib, rng, 0, 0)
		j.Deadline = 10 * sim.Second
		return node.Submit(j)
	}
	for i := 0; i < 4; i++ {
		submit()
		node.CatchUp(node.Now() + sim.Second)
	}
	if n := len(node.Unfinished()); n != 0 {
		return nil, nil, fmt.Errorf("warm-up left %d jobs unfinished", n)
	}
	return node, submit, nil
}

func (p *prober) sched() error {
	// One Algorithm 2 pass over a system populated mid-flight.
	pol := sched.NewLAX()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), p.set, pol)
	n := p.n(20_000)
	sys.Engine().Schedule(2*sim.Millisecond, func() {
		p.m.put("sched.lax_reprioritize_ns", "ns", perOp(n, pol.Reprioritize), n)
	})
	sys.Run()

	// One Node.Submit — Algorithm 1 — against 0, 32 and 128 admitted jobs.
	for _, active := range []int{0, 32, 128} {
		var s samples
		for rep := 0; rep < p.n(100); rep++ {
			node, submit, err := p.warmNode()
			if err != nil {
				return err
			}
			for i := 0; i < active; i++ {
				if submit().Rejected() {
					return fmt.Errorf("admission probe: job %d of %d refused, the node is not holding %d active jobs", i, active, active)
				}
			}
			s = append(s, perOp(1, func() { submit() })/1e3)
			if got := len(node.Unfinished()); got != active+1 {
				return fmt.Errorf("admission probe: %d unfinished jobs, want %d", got, active+1)
			}
		}
		p.m.put(fmt.Sprintf("sched.admission_us.%d", active), "us", s.median(), len(s))
	}

	// One whole LSTM/high cell per policy family.
	for _, name := range []string{"LAX", "SRF", "EDF", "RR", "BAT"} {
		const reps = 3
		ms := medianMs(reps, func() {
			pol, err := sched.New(name)
			if err != nil {
				panic(err) // a registered name
			}
			p.fullRun(pol, nil)
		})
		p.m.put("sched.cell_ms_p50."+name, "ms", ms, reps)
	}
	return nil
}

func (p *prober) cp() error {
	// The historical FullRun: 128 LSTM jobs at the high rate under LAX.
	var ms, mallocs samples
	var sys *cp.System
	var before, after runtime.MemStats
	for rep := 0; rep < 5; rep++ {
		runtime.ReadMemStats(&before)
		ms = append(ms, perOp(1, func() { sys = p.fullRun(sched.NewLAX(), nil) })/1e6)
		runtime.ReadMemStats(&after)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
	}
	p.m.put("cp.full_run_ms", "ms", ms.median(), len(ms))
	p.m.put("cp.full_run_allocs", "count", mallocs.median(), len(mallocs))
	jobs := float64(len(p.set.Jobs))
	p.m.put("sim.events_per_job", "count", float64(sys.Engine().Fired())/jobs, len(p.set.Jobs))
	p.m.put("gpu.wgs_per_job", "count", float64(sys.Device().Counters().TotalCompleted())/jobs, len(p.set.Jobs))

	n := p.n(200)
	p.m.put("cp.new_system_us", "us",
		perOp(n, func() { cp.NewSystem(cp.DefaultSystemConfig(), p.set, sched.NewLAX()) })/1e3, n)

	// Online mode: what a driver pays per simulated event it advances over.
	node, submit, err := p.warmNode()
	if err != nil {
		return err
	}
	for i := 0; i < 64; i++ {
		submit()
	}
	eng := node.System().Engine()
	fired := eng.Fired()
	ns := perOp(1, func() { node.CatchUp(node.Now() + 10*sim.Second) })
	events := eng.Fired() - fired
	p.m.put("cp.online_advance_ns_per_event", "ns", ns/float64(max(events, 1)), int(events))
	return nil
}

// harness compares the worker pool at width 1 and at its default width on
// a reduced Table 5 grid, and checks the two give identical results.
func (p *prober) harness() error {
	grid := sweepGrid(p.cfg.seed, 64, p.cfg.mini)
	sweep := func(parallel int) ([]laxgpu.Result, float64, error) {
		s := laxgpu.NewSession(laxgpu.SessionOptions{Parallel: parallel})
		defer s.Close()
		var res []laxgpu.Result
		var err error
		ns := perOp(1, func() { res, err = s.Sweep(grid) })
		return res, ns, err
	}
	if _, _, err := sweep(0); err != nil { // warm-up: the first sweep in a process runs slow
		return err
	}
	serial, serialNs, err := sweep(1)
	if err != nil {
		return err
	}
	pooled, pooledNs, err := sweep(0)
	if err != nil {
		return err
	}
	for i := range serial {
		p.t.op(serial[i] == pooled[i], "pool width 1 and default disagree on cell %s/%s", serial[i].Scheduler, serial[i].Benchmark)
	}
	// The same cells one Run at a time, no pool: what is left of the
	// width-1 sweep is the pool's dispatch.
	s := laxgpu.NewSession(laxgpu.SessionOptions{Parallel: 1})
	defer s.Close()
	cellsNs := perOp(1, func() {
		for _, o := range grid {
			if _, err = s.Run(context.Background(), o); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	p.m.put("harness.pool_width", "count", float64(harness.NewPool(0).Workers()), 0)
	p.m.put("harness.sweep_speedup", "ratio", serialNs/pooledNs, len(grid))
	p.m.put("harness.dispatch_overhead_share", "ratio", (serialNs-cellsNs)/serialNs, len(grid))
	return nil
}

// observers measures what watching a run costs: the FullRun bare, with the
// telemetry fan-out, and with the invariant checker, interleaved so a slow
// stretch of the host falls on all three.
func (p *prober) observers() error {
	var bare, probed, checked samples
	var verr error
	for rep := 0; rep < p.n(15); rep++ {
		bare = append(bare, perOp(1, func() { p.fullRun(sched.NewLAX(), nil) }))
		probed = append(probed, perOp(1, func() {
			p.fullRun(sched.NewLAX(), obs.Multi(obs.NewMetrics(), obs.NewPerfetto(), obs.NewTraceRecorder(0)))
		}))
		checked = append(checked, perOp(1, func() {
			pol := sched.NewLAX()
			cfg := cp.DefaultSystemConfig()
			sys := cp.NewSystem(cfg, p.set, pol)
			ck := verify.New(verify.OptionsFor("LAX", pol, cfg, false))
			ck.Attach(sys)
			sys.SetProbe(ck)
			sys.Run()
			if err := ck.Finalize(); err != nil {
				verr = err
			}
		}))
	}
	p.m.put("obs.probed_run_overhead_share", "ratio", probed.median()/bare.median()-1, len(bare))
	p.m.put("verify.checked_run_overhead_share", "ratio", checked.median()/bare.median()-1, len(bare))
	return verr
}

func (p *prober) cluster() error {
	for _, nodes := range []int{2, 8} {
		r := cluster.NewRouter(cluster.RouteHeadroom, nodes)
		for g := 0; g < nodes; g++ {
			r.SetHeadroom(g, sim.Time(g)*sim.Microsecond)
		}
		n := p.n(1_000_000)
		i := 0
		ns := perOp(n, func() {
			r.Pick(0, 150*sim.Microsecond, i)
			if i++; i%64 == 0 {
				r.SetHeadroom(i/64%nodes, 0) // a probe report, as often as a fleet would see one
			}
		})
		p.m.put(fmt.Sprintf("cluster.route_pick_ns.%d", nodes), "ns", ns, n)
	}
	return nil
}

func (p *prober) serve() error {
	stem, err := workload.FindBenchmark("STEM")
	if err != nil {
		return err
	}
	rng := sim.NewRNG(p.cfg.seed)

	// An empty Driver.Call: the command-channel round trip alone.
	clock := serve.NewManualClock()
	node, err := serve.NewNode(serve.NodeConfig{Scheduler: "LAX"})
	if err != nil {
		return err
	}
	d := serve.NewDriver(node, clock, 0)
	d.Start()
	n := p.n(20_000)
	call := perOp(n, func() { d.Call(func() {}) })
	d.Shutdown(time.Second)
	p.m.put("serve.driver_call_us", "us", call/1e3, n)

	// Node.Submit on an idle node, no driver: one STEM job every 200 µs.
	if node, err = serve.NewNode(serve.NodeConfig{Scheduler: "LAX"}); err != nil {
		return err
	}
	n = p.n(5000)
	now := sim.Time(0)
	submit := perOp(n, func() {
		now += 200 * sim.Microsecond
		node.AdvanceTo(now)
		node.Submit(stem.Sample(p.lib, rng, 0, 0))
	})
	p.m.put("serve.node_submit_us", "us", submit/1e3, n)

	// The laxd submit handler with no socket under it.
	srv, err := serve.New(serve.Options{Speed: nodeSpeed, Seed: p.cfg.seed, MaxPerClient: 1 << 20})
	if err != nil {
		return err
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	const body = `{"benchmark":"STEM"}`
	n = p.n(3000)
	bad := 0
	handler := perOp(n, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusTooManyRequests {
			bad++
		}
	})
	p.t.op(bad == 0, "serve submit handler: %d of %d replies were neither 202 nor 429", bad, n)
	p.m.put("serve.http_submit_handler_us", "us", handler/1e3, n)

	// The same handler over loopback TCP, and a status read beside it.
	front, url, err := listen(h)
	if err != nil {
		return err
	}
	defer front.Shutdown(context.Background())
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	roundTrip := func(method, path, body string) error {
		req, err := http.NewRequest(method, url+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var sink bytes.Buffer
		if _, err := sink.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode >= 500 {
			return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
		return nil
	}
	var posts samples
	var rtErr error
	for i := 0; i < p.n(1000); i++ {
		posts = append(posts, perOp(1, func() {
			if err := roundTrip(http.MethodPost, "/v1/jobs", body); err != nil {
				rtErr = err
			}
		})/1e3)
	}
	p.m.put("serve.http_submit_us_p50", "us", posts.median(), len(posts))
	n = p.n(1000)
	get := perOp(n, func() {
		if err := roundTrip(http.MethodGet, "/v1/jobs/0", ""); err != nil {
			rtErr = err
		}
	})
	p.m.put("serve.status_get_us", "us", get/1e3, n)
	return rtErr
}

// stubBackend accepts every job and never finishes it: what is left of
// Gateway.Submit over it is the gateway's own admit/route/journal/span cost.
type stubBackend struct{ name string }

func (b stubBackend) Name() string { return b.name }

func (b stubBackend) Probe(sim.Time) (gateway.Headroom, error) {
	return gateway.Headroom{Capacity: 1, CapacityFrac: 1}, nil
}

func (b stubBackend) Submit(_ sim.Time, job *gateway.Job, _ func(gateway.Outcome)) (gateway.Verdict, error) {
	return gateway.Verdict{Accepted: true, RemoteID: job.ID}, nil
}

func (p *prober) gateway() error {
	stem, err := workload.FindBenchmark("STEM")
	if err != nil {
		return err
	}
	stubFleet := func() (*gateway.Gateway, error) {
		return gateway.New(gateway.Options{
			Backends: []gateway.Backend{stubBackend{"stub0"}, stubBackend{"stub1"}},
			Clock:    serve.NewManualClock(), Seed: p.cfg.seed,
		})
	}
	gw, err := stubFleet()
	if err != nil {
		return err
	}
	n := p.n(20_000) // well under the journal cap: the young gateway
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns := perOp(n, func() { gw.Submit(stem, stem.Deadline, gateway.Standard) })
	runtime.ReadMemStats(&after)
	p.m.put("gateway.submit_stub_us", "us", ns/1e3, n)
	p.m.put("gateway.submit_stub_allocs", "count", float64(after.Mallocs-before.Mallocs)/float64(n), n)

	// The laxgw submit handler over the same stub, no socket.
	if gw, err = stubFleet(); err != nil {
		return err
	}
	h := gw.Handler()
	n = p.n(5000)
	bad := 0
	ns = perOp(n, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"benchmark":"STEM"}`)))
		if rec.Code != http.StatusAccepted {
			bad++
		}
	})
	p.t.op(bad == 0, "gateway submit handler: %d of %d replies were not 202", bad, n)
	p.m.put("gateway.http_handler_us", "us", ns/1e3, n)

	// A short replay on a real in-process fleet, with the nodes' trace rings
	// on and off: what the tracing plane allocates per job, and what
	// stitching one job's trace costs.
	plan, err := buildPlan(p.cfg.seed, 0.02)
	if err != nil {
		return err
	}
	plan = plan[:min(len(plan), p.n(3000))]
	replay := func(depth int) (*fleetReplay, float64, error) {
		w := &fleetReplay{cfg: config{seed: p.cfg.seed}, plan: plan, cur: -1, clock: serve.NewManualClock()}
		var err error
		if w.gw, w.nodes, err = newFleet(w.cfg, w.clock, depth, nil); err != nil {
			return nil, 0, err
		}
		runtime.ReadMemStats(&before)
		err = w.replay()
		runtime.ReadMemStats(&after)
		return w, float64(after.TotalAlloc-before.TotalAlloc) / float64(len(plan)), err
	}
	untraced, bytesOff, err := replay(-1)
	if untraced != nil {
		untraced.close()
	}
	if err != nil {
		return err
	}
	traced, bytesOn, err := replay(0)
	if traced != nil {
		defer traced.close()
	}
	if err != nil {
		return err
	}
	p.m.put("obs.span_bytes_per_job", "B", bytesOn-bytesOff, len(plan))
	n = len(plan)
	missing := 0
	ns = perOp(n, func() {
		n--
		if _, ok := traced.gw.StitchedTrace(int64(n)); !ok {
			missing++
		}
	})
	p.t.op(missing == 0, "%d of %d journaled jobs had no stitched trace", missing, len(plan))
	p.m.put("obs.trace_stitch_us", "us", ns/1e3, len(plan))
	return nil
}
