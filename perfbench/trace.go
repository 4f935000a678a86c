package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"grophecy/internal/batch/dag"
	"grophecy/internal/core"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
	"grophecy/internal/target"
)

// The traced run. Its daemon half times one window exactly like an
// end-to-end run and takes the daemon's own counters from /metrics
// before and after it. Once that daemon has exited, the replay half
// feeds the same generated inputs through each layer's public
// functions in this process, with spans around every call, so the
// layers' shares of the daemon's server time can be laid side by side.

// stageNames are the core stages in execution order.
var stageNames = []string{"datausage", "kernels", "transfers", "cpu", "assemble"}

// spans collects per-call wall times in microseconds by layer name.
type spans map[string][]float64

func (sp spans) time(name string, f func() error) error {
	start := time.Now()
	err := f()
	sp[name] = append(sp[name], float64(time.Since(start).Nanoseconds())/1e3)
	return err
}

func (sp spans) sum(name string) float64 {
	var s float64
	for _, v := range sp[name] {
		s += v
	}
	return s
}

// timedStage wraps a core stage with a span.
type timedStage struct {
	core.Stage
	sp spans
}

func (t timedStage) Run(ctx context.Context, st *core.EvalState) error {
	return t.sp.time("core."+t.Name(), func() error { return t.Stage.Run(ctx, st) })
}

// tracedEngine composes core.DefaultStages() with a span around each.
func tracedEngine(sp spans) (*core.Engine, error) {
	var stages []core.Stage
	for _, s := range core.DefaultStages() {
		stages = append(stages, timedStage{s, sp})
	}
	return core.NewEngine(stages...)
}

// replayCall is one library-level request: what /project does inside
// its handler, or what one /batch job does on a sweep worker.
type replayCall struct {
	src     string        // skeleton source; empty for a named batch job
	wl      core.Workload // the named job's workload
	tgt     target.Target
	backend string
	seed    uint64
}

// replayer runs calls through the layers with a span around each.
type replayer struct {
	ref   *reference
	sp    spans
	batch bool // replaying batch_dag jobs
	calls int  // completed calls
	bytes int  // report bytes rendered
}

func newReplayer(batch bool) (*replayer, error) {
	sp := spans{}
	eng, err := tracedEngine(sp)
	if err != nil {
		return nil, err
	}
	return &replayer{ref: newReference(eng), sp: sp, batch: batch}, nil
}

// reset forgets the warm-up round's spans and counts; the pool and the
// caches stay warm.
func (rp *replayer) reset() {
	for k := range rp.sp {
		delete(rp.sp, k)
	}
	rp.calls, rp.bytes = 0, 0
}

func (rp *replayer) run(ctx context.Context, c replayCall) error {
	wl := c.wl
	if c.src != "" {
		if err := rp.sp.time("sklang.parse", func() (err error) {
			wl, err = sklang.Parse(c.src)
			return err
		}); err != nil {
			return err
		}
	}
	misses := rp.ref.pool.Misses()
	start := time.Now()
	p, err := rp.ref.pool.Projector(ctx, c.tgt, c.backend, c.seed, c.tgt.Memory)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	if err != nil {
		return err
	}
	if rp.ref.pool.Misses() > misses {
		// Each backend calibrates differently, so misses are kept apart.
		rp.sp["engine.miss."+c.backend] = append(rp.sp["engine.miss."+c.backend], us)
	} else {
		rp.sp["engine.hit"] = append(rp.sp["engine.hit"], us)
	}
	rp.sp["engine"] = append(rp.sp["engine"], us)
	var rep core.Report
	if err := rp.sp.time("core", func() (err error) {
		rep, err = rp.ref.eng.Evaluate(ctx, p, wl)
		return err
	}); err != nil {
		return err
	}
	var data []byte
	if err := rp.sp.time("report.json", func() (err error) {
		data, err = report.JSON(rep)
		return err
	}); err != nil {
		return err
	}
	rp.calls++
	rp.bytes += len(data)
	return nil
}

// Replay sizes: enough calls for stable medians in well under a second
// of a 2-core host's time.
const (
	replayWarmRounds  = 30 // rounds over project_warm's ten inputs
	replayBatchRounds = 6  // rounds over batch_dag's 64 jobs
	replayColdCalls   = 90 // project_cold requests replayed, 30 per backend
	dagBuildCalls     = 500
)

// replayCalls returns the library calls a workload's requests make:
// one warm-up round (not traced, as the daemon's warm-up is not
// timed), then the traced rounds.
func replayCalls(cfg runConfig, s *session) (warm, traced []replayCall, err error) {
	def, err := target.Lookup("")
	if err != nil {
		return nil, nil, err
	}
	project := func(r request) replayCall {
		return replayCall{src: string(r.body), tgt: def, backend: r.backend, seed: r.seed}
	}
	switch cfg.workload {
	case wlWarm:
		for _, r := range s.w.warmup {
			warm = append(warm, project(r))
		}
		for k := 0; k < replayWarmRounds; k++ {
			traced = append(traced, warm...)
		}
	case wlCold:
		// Cold inputs are never repeated, so nothing is warmed; the
		// replay misses exactly where the daemon did.
		for i := 0; i < replayColdCalls; i++ {
			r, err := s.w.next(i)
			if err != nil {
				return nil, nil, err
			}
			traced = append(traced, project(r))
		}
	case wlBatch:
		jobs := batchJobs()
		rows, err := checkBatch(s.warmup[0].body, len(jobs), false)
		if err != nil {
			return nil, nil, err
		}
		for _, row := range rows {
			wl, err := namedWorkload(jobs[row.Index])
			if err != nil {
				return nil, nil, err
			}
			tgt, err := target.Lookup(row.Target)
			if err != nil {
				return nil, nil, err
			}
			warm = append(warm, replayCall{wl: wl, tgt: tgt, backend: row.Backend, seed: row.Seed})
		}
		for k := 0; k < replayBatchRounds; k++ {
			traced = append(traced, warm...)
		}
	}
	return warm, traced, nil
}

// tracedRun produces the per-layer metrics and the ledger.
func tracedRun(cfg runConfig) (result, error) {
	var res result
	s, err := setUp(cfg, 1)
	if err != nil {
		return res, err
	}
	defer s.close()
	win, err := drive(cfg, s, &res)
	if err != nil {
		return res, err
	}
	s.close()
	s.d = nil

	ctx := context.Background()
	rp, err := newReplayer(cfg.workload == wlBatch)
	if err != nil {
		return res, err
	}
	warm, traced, err := replayCalls(cfg, s)
	if err != nil {
		return res, err
	}
	for _, c := range warm {
		if err := rp.run(ctx, c); err != nil {
			return res, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	rp.reset()
	for _, c := range traced {
		if err := rp.run(ctx, c); err != nil {
			return res, fmt.Errorf("replay: %w", err)
		}
	}
	if err := rp.probe(ctx); err != nil {
		return res, fmt.Errorf("probe: %w", err)
	}
	layerMetrics(cfg, win, rp, &res)
	return res, nil
}

// probeCalls is how often a probe repeats its call.
const probeCalls = 30

// probe times, on fixed inputs, the layer calls the replay never made,
// under "probe." keys the ledger does not read: /project never builds
// a DAG, a batch of named jobs never parses, warm workloads never miss
// and cold ones never hit. Every per-layer time is thus a measurement
// on every workload, and its note says when it is a probe.
func (rp *replayer) probe(ctx context.Context) error {
	sp := rp.sp
	jobs := batchJobs()
	nodes := make([]dag.Node, len(jobs))
	for i, j := range jobs {
		nodes[i] = dag.Node{ID: j.ID, DependsOn: j.DependsOn}
	}
	key := "probe.dag.build"
	if rp.batch {
		key = "dag.build"
	}
	for k := 0; k < dagBuildCalls; k++ {
		if err := sp.time(key, func() error { _, err := dag.Build(nodes); return err }); err != nil {
			return err
		}
	}
	if len(sp["sklang.parse"]) == 0 {
		var srcs []string
		for _, a := range batchApps {
			wl, err := namedWorkload(batchJob{Workload: a.workload, Size: a.size})
			if err != nil {
				return err
			}
			src, err := sklang.Format(wl)
			if err != nil {
				return err
			}
			srcs = append(srcs, src)
		}
		for k := 0; k < probeCalls; k++ {
			if err := sp.time("probe.sklang.parse", func() error { _, err := sklang.Parse(srcs[k%len(srcs)]); return err }); err != nil {
				return err
			}
		}
	}
	def, err := target.Lookup("")
	if err != nil {
		return err
	}
	projector := func(key, backend string, seed uint64) error {
		return sp.time(key, func() error {
			_, err := rp.ref.pool.Projector(ctx, def, backend, seed, def.Memory)
			return err
		})
	}
	for _, be := range backends {
		if len(sp["engine.miss."+be]) > 0 {
			continue
		}
		for k := 0; k < probeCalls/3; k++ {
			// Seeds no workload uses: every call calibrates.
			if err := projector("probe.engine.miss."+be, be, 1<<62+uint64(k)); err != nil {
				return err
			}
		}
	}
	if len(sp["engine.hit"]) == 0 {
		if _, err := rp.ref.pool.Projector(ctx, def, "analytic", 1<<62, def.Memory); err != nil {
			return err // the calibration the hits below reuse
		}
		for k := 0; k < probeCalls; k++ {
			if err := projector("probe.engine.hit", "analytic", 1<<62); err != nil {
				return err
			}
		}
	}
	return nil
}

// layerMetrics turns the window's counter deltas and the replay's
// spans into the per-layer metrics and the ledger.
func layerMetrics(cfg runConfig, win window, rp *replayer, res *result) {
	b, a := win.before, win.after
	sp := rp.sp
	batch := cfg.workload == wlBatch

	serverS, served := histMean(b, a, "grophecyd_request_seconds")
	queueS, _ := histMean(b, a, "grophecyd_queue_wait_seconds")
	client := summarize(win.latMS)
	serverUS := serverS * 1e6

	// Library time per request, as replayed. A /project request is one
	// job run inline by its handler; a /batch request spreads 64 jobs
	// over grophecyd's default fan-out of GOMAXPROCS sweep workers.
	workers, jobsPerReq := 1.0, 1.0
	if batch {
		workers, jobsPerReq = float64(runtime.GOMAXPROCS(0)), float64(len(batchJobs()))
	}
	perReq := func(layer string) float64 {
		if rp.calls == 0 {
			return 0
		}
		return sp.sum(layer) / float64(rp.calls) * jobsPerReq / workers
	}
	workUS := perReq("engine") + perReq("core") + perReq("report.json")
	libUS := workUS + perReq("sklang.parse")
	if batch {
		libUS += median(sp["dag.build"])
	}
	residualUS := serverUS - libUS

	timed := func(name, key string) {
		if xs := sp[key]; len(xs) > 0 {
			res.add(name, "us", median(xs), fmt.Sprintf("median of %d calls", len(xs)))
			return
		}
		xs := sp["probe."+key]
		res.add(name, "us", median(xs), fmt.Sprintf("median of %d probe calls on a fixed input; %s does not make this call", len(xs), cfg.workload))
	}
	res.add("grophecyd.server_mean_ms", "ms", serverS*1e3, fmt.Sprintf("grophecyd_request_seconds over %d requests", served))
	res.add("grophecyd.queue_wait_mean_ms", "ms", queueS*1e3, fmt.Sprintf("grophecyd_queue_wait_seconds over %d requests", served))
	res.add("grophecyd.transport_mean_ms", "ms", client.mean-serverS*1e3, fmt.Sprintf("client mean %.4g ms over %d − server mean", client.mean, client.n))
	res.add("grophecyd.handler_residual_us", "us", residualUS, "server mean − replayed library calls")
	timed("sklang.parse_us", "sklang.parse")
	timed("engine.hit_us", "engine.hit")
	for _, be := range backends {
		timed("engine.miss_us."+be, "engine.miss."+be)
	}
	ratio, hits, lookups := cacheRatio(b, a, "engine_cache")
	res.add("engine.hit_ratio", "ratio", ratio, fmt.Sprintf("%d hits of %d projector calls in the window", hits, lookups))
	res.add("engine.evictions", "count", delta(b, a, "engine_cache_evictions_total"), "in the window")
	for _, st := range stageNames {
		timed("core."+st+"_us", "core."+st)
	}
	ratio, hits, lookups = cacheRatio(b, a, "transform_cache")
	res.add("transform.hit_ratio", "ratio", ratio, fmt.Sprintf("%d hits of %d lookups in the window", hits, lookups))
	res.add("transform.evictions", "count", delta(b, a, "transform_cache_evictions_total"), "in the window")
	ratio, hits, lookups = cacheRatio(b, a, "brs_cache")
	res.add("brs.cache_lookups", "count", float64(lookups), "in the window")
	res.add("brs.hit_ratio", "ratio", ratio, fmt.Sprintf("%d hits of %d lookups in the window", hits, lookups))
	timed("report.json_us", "report.json")
	bytesPer := 0.0
	if rp.calls > 0 {
		bytesPer = float64(rp.bytes) / float64(rp.calls)
	}
	res.add("report.bytes", "bytes", bytesPer, fmt.Sprintf("mean over %d reports", rp.calls))
	timed("dag.build_us", "dag.build")
	busyPct := 0.0
	if serverUS > 0 {
		busyPct = 100 * workUS / serverUS
	}
	res.add("dag.sched_gap_ms", "ms", (serverUS-workUS)/1e3, fmt.Sprintf("server time − replayed job work ÷ %g worker(s)", workers))
	res.add("sweep.busy_pct", "%", busyPct, fmt.Sprintf("replayed job work ÷ (server time × %g worker(s))", workers))

	res.extra = ledger(serverUS, queueS*1e6, served, perReq, sp, batch, workers, residualUS)
}

// ledger prints each layer's mean share of the daemon's server time
// per request, and the residual nobody has attributed.
func ledger(serverUS, queueUS float64, served int64, perReq func(string) float64, sp spans, batch bool, workers float64, residualUS float64) []string {
	share := func(us float64) string {
		if serverUS <= 0 {
			return "-"
		}
		return fmt.Sprintf("%5.1f%%", 100*us/serverUS)
	}
	scale := "per request"
	if batch {
		scale = fmt.Sprintf("per request (64 jobs ÷ %g workers)", workers)
	}
	out := []string{fmt.Sprintf("ledger: grophecyd.server_mean = %.1f us over %d requests; layer means %s", serverUS, served, scale)}
	row := func(name string, us float64) {
		out = append(out, fmt.Sprintf("  %-58s %10.1f us  %s", name, us, share(us)))
	}
	if batch {
		row("dag.Build", median(sp["dag.build"]))
	} else {
		row("sklang.Parse", perReq("sklang.parse"))
	}
	row("engine.Pool.Projector", perReq("engine"))
	stagesUS := 0.0
	for _, st := range stageNames {
		row("core."+st, perReq("core."+st))
		stagesUS += perReq("core." + st)
	}
	row("core.Engine.Evaluate outside the stages", perReq("core")-stagesUS)
	row("report.JSON", perReq("report.json"))
	row("residual (admission, handler, flight, telemetry, logging)", residualUS)
	out = append(out, fmt.Sprintf("  %-58s %10.1f us  (part of the residual)", "of which admission queue wait", queueUS))
	return out
}
