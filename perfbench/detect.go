package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/graph"
	"repro/internal/seq"
	"repro/scc"
)

// detectSpec names one detect workload's input.
type detectSpec struct {
	dataset string
	scale   float64
	build   func(scale float64, seed int64) *graph.Graph
}

var (
	flickrDetect = detectSpec{dataset: "flickr", scale: 1.0, build: flickrGraph}
	roadDetect   = detectSpec{dataset: "ca-road", scale: 1.0, build: roadGraph}
)

const (
	// setupReps is how many cold set-ups a run times; setup_s is their
	// median.
	setupReps = 5
	// minDetections is the fewest timed detections a run accepts; the
	// loop runs past --seconds until it has them.
	minDetections = 100
)

// detectOptions are the engine settings every detect workload uses:
// Method2, default worklist kernels, nproc workers, fixed pivot seed.
func detectOptions() scc.Options {
	return scc.Options{Algorithm: scc.Method2, Workers: runtime.NumCPU(), Seed: 1}
}

// detectRun is one measured window of a detect workload.
type detectRun struct {
	setup  []float64 // seconds per cold set-up
	lat    []float64 // ms per warm Detect
	memMB  float64   // peak resident set over set-up and the first minDetections
	layer  map[string]float64
	gc     gcStats
	tracer *tracer
}

func runDetect(ctx context.Context, p params, spec detectSpec) (*report, error) {
	scale := spec.scale
	if p.tiny {
		scale = 1.0 / 64
	}
	t0 := time.Now()
	g := spec.build(scale, p.seed)
	want, _ := seq.Tarjan(g)
	inputs := time.Since(t0)

	rep := &report{}
	rep.stamp.set("dataset", spec.dataset)
	rep.stamp.set("scale", scale)
	rep.stamp.set("nodes", g.NumNodes())
	rep.stamp.set("edges", g.NumEdges())
	rep.stamp.set("inputs_and_oracle_s", inputs.Seconds())
	rep.stamp.set("loop", "closed, 1 caller")
	opts := detectOptions()
	rep.stamp.set("algorithm", opts.Algorithm)
	rep.stamp.set("kernels", opts.Kernels)
	rep.stamp.set("workers", opts.Workers)

	base, err := detectWindow(ctx, p, g, want, rep, false)
	if err != nil {
		return nil, err
	}
	final := base
	if p.trace {
		if final, err = detectWindow(ctx, p, g, want, rep, true); err != nil {
			return nil, err
		}
		if err := summarizeTrace(final.tracer, p, "detect-"+spec.dataset, &rep.stamp); err != nil {
			return nil, err
		}
	}
	rep.stamp.set("detections", len(base.lat))
	rep.stamp.set("setups", len(base.setup))
	rep.e2e = map[string]float64{
		"latency_ms.p50": quantile(base.lat, 0.5),
		"setup_s":        median(base.setup),
		"mem_peak_mb":    base.memMB,
	}
	rep.show("detect_ms.p50", rep.e2e["latency_ms.p50"], "ms")
	rep.show("detect_ms.p90", quantile(base.lat, 0.9), "ms")
	rep.show("setup_s", rep.e2e["setup_s"], "s")
	rep.show("mem_peak_mb", rep.e2e["mem_peak_mb"], "MiB")
	if p.trace {
		rep.layer = final.layer
		rep.layer["trace.overhead_pct"] = overheadPct(base.lat, final.lat)
	}
	return rep, nil
}

// overheadPct is the traced window's median latency over the untraced
// one's, as a percentage increase.
func overheadPct(untraced, traced []float64) float64 {
	u, t := median(untraced), median(traced)
	if u == 0 {
		return 0
	}
	return (t - u) / u * 100
}

// detectWindow times setupReps cold set-ups (scc.New plus the first
// Detect) and then a closed loop of warm Detect calls on the last
// engine, checking every partition against the Tarjan oracle.
func detectWindow(ctx context.Context, p params, g *graph.Graph, want []int32, rep *report, traced bool) (*detectRun, error) {
	run := &detectRun{}
	if traced {
		run.tracer = newTracer()
	}
	reps := setupReps
	if p.tiny {
		reps = 2
	}
	opts := detectOptions()
	rss := newRSSPeak()
	var eng *scc.Engine
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		e, err := scc.New(opts)
		if err != nil {
			return nil, fmt.Errorf("scc.New: %w", err)
		}
		res, err := e.Detect(ctx, g)
		d := time.Since(t0)
		rep.check(err == nil && scc.SamePartition(res.Comp, want), "cold detect %d: partition differs from Tarjan (err %v)", i, err)
		run.setup = append(run.setup, d.Seconds())
		rss.sample()
		if i < reps-1 {
			e.Close()
		} else {
			eng = e
		}
	}
	defer eng.Close()

	var (
		obs   phaseObserver
		ropts []scc.RunOption
		rows  []detectLayers
		cpu   time.Duration
		wall  time.Duration
		// Allocations are read around each Detect only, so the check's
		// garbage stays out of them.
		mem0, mem1         runtime.MemStats
		allocs, allocBytes uint64
	)
	if traced {
		obs.tr = run.tracer
		ropts = append(ropts, scc.WithObserver(&obs))
	}
	minOps := minDetections
	if p.tiny {
		minOps = 3
	}
	run.gc.begin()
	start := time.Now()
	for time.Since(start) < p.duration() || len(run.lat) < minOps {
		id := run.tracer.id()
		obs.reset(id)
		c0 := time.Duration(0)
		if traced {
			runtime.ReadMemStats(&mem0)
			c0 = cpuTime()
		}
		t0 := time.Now()
		res, err := eng.Detect(ctx, g, ropts...)
		t1 := time.Now()
		// The engine's retained scratch grows with every Detect, so a peak
		// over the whole loop would depend on how many detections the
		// window fits; the peak covers a fixed count instead.
		if len(run.lat) < minOps {
			rss.sample()
		}
		if traced {
			cpu += cpuTime() - c0
			runtime.ReadMemStats(&mem1)
			allocs += mem1.Mallocs - mem0.Mallocs
			allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
			wall += t1.Sub(t0)
			run.tracer.record(id, 0, "scc.Engine.Detect", t0, t1)
		}
		run.lat = append(run.lat, ms(t1.Sub(t0)))
		ok := err == nil && scc.SamePartition(res.Comp, want)
		rep.check(ok, "warm detect %d: partition differs from Tarjan (err %v)", len(run.lat), err)
		if traced && err == nil {
			rows = append(rows, layersOf(res))
		}
		// The check's garbage is the benchmark's, not the engine's:
		// collect it here so it never runs inside a timed Detect.
		runtime.GC()
	}
	run.gc.end()
	run.memMB = rss.mib()
	if traced {
		run.layer = map[string]float64{}
		addDetectLayers(run.layer, rows)
		addRuntimeLayers(run.layer, run.gc)
		n := float64(len(run.lat))
		run.layer["detect.allocs_per_op"] = float64(allocs) / n
		run.layer["detect.bytes_per_op"] = float64(allocBytes) / n
		if wall > 0 {
			run.layer["core.parallel_efficiency"] = float64(cpu) / (float64(wall) * float64(opts.Workers))
		}
	}
	return run, nil
}

// detectLayers is the per-layer view of one Detect result.
type detectLayers struct {
	phases                          [scc.NumPhases]float64 // ms
	rounds, tasks, queuePeak        float64
	bfsLevels, frontier             float64
	trimRounds, trimPushes, trimmed float64
	ufUnions, ufHops, bytesReused   float64
}

func layersOf(r *scc.Result) detectLayers {
	var l detectLayers
	for i, ph := range r.Phases {
		l.phases[i] = ms(ph.Time)
		l.rounds += float64(ph.Rounds)
	}
	m := r.Metrics
	l.tasks = float64(m.Tasks)
	l.queuePeak = float64(r.Queue.PeakReady)
	l.bfsLevels = float64(m.BFSLevels)
	l.frontier = float64(m.FrontierNodes)
	l.trimRounds = float64(m.TrimRounds)
	l.trimPushes = float64(m.TrimPushes)
	l.trimmed = float64(m.TrimmedNodes)
	l.ufUnions = float64(m.UFUnions)
	l.ufHops = float64(m.UFFindHops)
	l.bytesReused = float64(m.BytesReused)
	return l
}

// phaseMetricNames are the per-phase metric names in scc.Phase order.
var phaseMetricNames = [scc.NumPhases]string{
	"core.par_trim_ms", "core.par_fwbw_ms", "core.par_trim_post_ms", "core.par_wcc_ms", "core.recur_fwbw_ms",
}

// addDetectLayers stores the per-Detect rows' medians.
func addDetectLayers(out map[string]float64, rows []detectLayers) {
	col := func(f func(detectLayers) float64) float64 {
		xs := make([]float64, len(rows))
		for i, r := range rows {
			xs[i] = f(r)
		}
		return median(xs)
	}
	for i, name := range phaseMetricNames {
		out[name] = col(func(r detectLayers) float64 { return r.phases[i] })
	}
	out["core.barrier_rounds"] = col(func(r detectLayers) float64 { return r.rounds })
	out["core.tasks"] = col(func(r detectLayers) float64 { return r.tasks })
	out["core.queue_peak"] = col(func(r detectLayers) float64 { return r.queuePeak })
	out["bfs.levels"] = col(func(r detectLayers) float64 { return r.bfsLevels })
	out["bfs.frontier_nodes"] = col(func(r detectLayers) float64 { return r.frontier })
	out["trim.rounds"] = col(func(r detectLayers) float64 { return r.trimRounds })
	out["trim.pushes"] = col(func(r detectLayers) float64 { return r.trimPushes })
	out["trim.trimmed_nodes"] = col(func(r detectLayers) float64 { return r.trimmed })
	out["wcc.uf_unions"] = col(func(r detectLayers) float64 { return r.ufUnions })
	out["wcc.uf_find_hops"] = col(func(r detectLayers) float64 { return r.ufHops })
	out["scratch.bytes_reused"] = col(func(r detectLayers) float64 { return r.bytesReused })
}

// addRuntimeLayers stores the window's garbage-collector totals.
func addRuntimeLayers(out map[string]float64, gc gcStats) {
	out["runtime.gc_cycles"] = float64(gc.cycles)
	out["runtime.gc_pause_ms"] = ms(gc.pause)
}

// phaseObserver turns a run's phase boundary events into child spans of
// the enclosing Detect span. In server mode (minNodes > 0) it also owns
// the run spans and collects a detectLayers row per run that covered at
// least minNodes nodes, since the server's self-check builds have no
// Result the benchmark can read; counters only the Result carries
// (trim pushes, union-find work) stay 0 there.
type phaseObserver struct {
	tr       *tracer
	minNodes int64

	mu       sync.Mutex
	parent   int64
	runStart time.Time
	starts   [scc.NumPhases]time.Time
	cur      detectLayers
	rounds   [scc.NumPhases]int
	nodes    [scc.NumPhases]int64
	rows     []detectLayers
}

// reset starts a new run whose phases become children of span parent.
func (o *phaseObserver) reset(parent int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.startRun(parent, time.Time{})
}

func (o *phaseObserver) startRun(parent int64, at time.Time) {
	o.parent, o.runStart = parent, at
	o.cur, o.rounds, o.nodes = detectLayers{}, [scc.NumPhases]int{}, [scc.NumPhases]int64{}
}

func (o *phaseObserver) Observe(ev scc.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := time.Now()
	inPhase := ev.Phase >= 0 && ev.Phase < int(scc.NumPhases)
	switch ev.Type {
	case scc.EventPhaseStart:
		if o.minNodes > 0 && o.runStart.IsZero() {
			o.startRun(o.tr.id(), now)
		}
		if inPhase {
			o.starts[ev.Phase] = now
		}
	case scc.EventPhaseEnd:
		if inPhase {
			o.cur.phases[ev.Phase] += ms(now.Sub(o.starts[ev.Phase]))
			o.tr.record(0, o.parent, "core."+scc.Phase(ev.Phase).String(), o.starts[ev.Phase], now)
			// Round and Nodes are the phase's cumulative totals.
			o.rounds[ev.Phase], o.nodes[ev.Phase] = ev.Round, ev.Nodes
		}
	case scc.EventTaskDone:
		o.cur.tasks++
	case scc.EventQueueSample:
		o.cur.queuePeak = max(o.cur.queuePeak, float64(ev.Queued))
	case scc.EventBFSLevel:
		o.cur.bfsLevels++
		o.cur.frontier += float64(ev.Frontier)
	case scc.EventTrimRound:
		o.cur.trimRounds++
		o.cur.trimmed += float64(ev.Nodes)
	case scc.EventRunMetrics:
		o.cur.bytesReused = float64(ev.BytesReused)
		if o.minNodes == 0 {
			return
		}
		var covered int64
		for i, r := range o.rounds {
			o.cur.rounds += float64(r)
			covered += o.nodes[i]
		}
		if covered >= o.minNodes {
			o.rows = append(o.rows, o.cur)
			o.tr.record(o.parent, 0, "server.selfcheck.Detect", o.runStart, now)
		}
		o.startRun(0, time.Time{})
	}
}

// fullRuns returns the rows of the runs that covered minNodes nodes.
func (o *phaseObserver) fullRuns() []detectLayers {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]detectLayers(nil), o.rows...)
}
