package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/graph"
	"repro/internal/durable"
	"repro/internal/incr"
	"repro/internal/metrics"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/scc"
)

// serveShape is serve-mixed's input and traffic.
type serveShape struct {
	scale     float64
	readRate  float64 // reads per second, one connection
	writeRate float64 // update batches per second, one connection
	mix       updateMix
	samples   int // post-load answers checked against the model
}

func shapeFor(p params) serveShape {
	if p.tiny {
		return serveShape{scale: 1.0 / 64, readRate: 200, writeRate: 20, mix: defaultMix, samples: 40}
	}
	return serveShape{scale: 0.25, readRate: 1000, writeRate: 50, mix: defaultMix, samples: 200}
}

const (
	// genLagLimitMS is the generator lateness (p99, ms) past which a run
	// is invalid: the generator, not the server, set the schedule. A few
	// ms of lateness is normal: the server's self-check builds hold both
	// cores for tens of ms every 64 epochs.
	genLagLimitMS = 50.0
	// spanHeader carries the client span id to the server-side wrapper.
	spanHeader = "X-Perfbench-Span"
)

// serveStream is the generated input of one serve run.
type serveStream struct {
	g       *graph.Graph
	queries []query
	batches [][]graph.Update
	bodies  []string
}

func makeServeStream(p params, sh serveShape) *serveStream {
	g := flickrGraph(sh.scale, p.seed)
	rng := rand.New(rand.NewSource(genSeed(p.seed, 7)))
	st := &serveStream{g: g}
	st.queries = genQueries(rng, g.NumNodes(), int(sh.readRate*p.seconds))
	st.batches = genBatches(rng, g, int(sh.writeRate*p.seconds), sh.mix)
	st.bodies = make([]string, len(st.batches))
	for i, b := range st.batches {
		st.bodies[i] = body(b)
	}
	return st
}

func runServe(ctx context.Context, p params) (*report, error) {
	sh := shapeFor(p)
	st := makeServeStream(p, sh)
	rep := &report{}
	rep.stamp.set("dataset", "flickr")
	rep.stamp.set("scale", sh.scale)
	rep.stamp.set("nodes", st.g.NumNodes())
	rep.stamp.set("edges", st.g.NumEdges())
	rep.stamp.set("loop", "open, 1 reader + 1 writer connection")
	rep.stamp.set("read_rate_per_s", sh.readRate)
	rep.stamp.set("write_rate_batches_per_s", sh.writeRate)
	rep.stamp.set("batch_size", sh.mix.size())
	rep.stamp.set("update_mix", sh.mix)
	rep.stamp.set("server", "WAL fsync=interval, incremental epochs, self-check every 64")

	base, err := serveWindow(ctx, p, sh, st, rep, false)
	if err != nil {
		return nil, err
	}
	final := base
	if p.trace {
		if final, err = serveWindow(ctx, p, sh, st, rep, true); err != nil {
			return nil, err
		}
		if err := summarizeTrace(final.tracer, p, "serve", &rep.stamp); err != nil {
			return nil, err
		}
	}
	rep.stamp.set("reads_sent", len(base.compLat)+len(base.reachLat))
	rep.stamp.set("batches_sent", len(base.updLat))
	rep.stamp.set("setups", len(base.setup))
	if base.genLagP99 > genLagLimitMS {
		rep.invalid = fmt.Sprintf("generator lag p99 %.2f ms exceeds %.0f ms", base.genLagP99, genLagLimitMS)
	}
	rep.e2e = map[string]float64{
		"latency_ms.p50": quantile(base.reachLat, 0.5),
		"setup_s":        median(base.setup),
		"mem_peak_mb":    base.memMB,
	}
	rep.show("componentof_us.p50", 1000*quantile(base.compLat, 0.5), "us")
	rep.show("componentof_us.p99", 1000*quantile(base.compLat, 0.99), "us")
	rep.show("reachable_us.p50", 1000*quantile(base.reachLat, 0.5), "us")
	rep.show("reachable_us.p99", 1000*quantile(base.reachLat, 0.99), "us")
	rep.show("update_ms.p50", quantile(base.updLat, 0.5), "ms")
	rep.show("update_ms.p90", quantile(base.updLat, 0.9), "ms")
	rep.show("update_ms.p99", quantile(base.updLat, 0.99), "ms")
	rep.show("setup_s", rep.e2e["setup_s"], "s")
	rep.show("mem_peak_mb", rep.e2e["mem_peak_mb"], "MiB")
	rep.show("bench.gen_lag_ms.p99", base.genLagP99, "ms")
	if p.trace {
		rep.layer = final.layer
		rep.layer["trace.overhead_pct"] = overheadPct(base.reachLat, final.reachLat)
	}
	return rep, nil
}

// serveRun is one measured window of serve-mixed.
type serveRun struct {
	setup     []float64 // seconds per cold set-up
	compLat   []float64 // ms from due time, componentof
	reachLat  []float64 // ms from due time, reachable
	updLat    []float64 // ms from due time, update batches
	genLagP99 float64   // ms, worse of the two generators
	memMB     float64   // peak resident set over set-up and load
	layer     map[string]float64
	tracer    *tracer
}

// liveServer is one started server with its store and listener.
type liveServer struct {
	srv   *server.Server
	store *durable.Store
	dir   string
	ts    *httptest.Server
}

func (l *liveServer) close() {
	if l.ts != nil {
		l.ts.Close()
	}
	l.srv.Close()
	l.store.Close()
	os.RemoveAll(l.dir)
}

// startServer opens a fresh durable store and starts a server on it;
// the returned duration covers durable.Open, server.New and WaitReady.
func startServer(ctx context.Context, p params, g *graph.Graph, fs durable.FS, obs scc.Observer) (*liveServer, time.Duration, error) {
	dir, err := os.MkdirTemp(p.workdir, "wal-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	store, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncInterval, FS: fs})
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	opts := detectOptions()
	opts.Observer = obs
	srv, err := server.New(server.Config{
		Options: opts,
		Durable: store,
		Logf:    func(string, ...any) {},
	}, g)
	if err != nil {
		store.Close()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	l := &liveServer{srv: srv, store: store, dir: dir}
	if err := srv.WaitReady(ctx); err != nil {
		l.close()
		return nil, 0, err
	}
	return l, time.Since(t0), nil
}

func serveWindow(ctx context.Context, p params, sh serveShape, st *serveStream, rep *report, traced bool) (*serveRun, error) {
	run := &serveRun{layer: map[string]float64{}}
	var (
		fs  *timedFS
		obs *phaseObserver
	)
	dfs := durable.FS(nil)
	sobs := scc.Observer(nil)
	if traced {
		run.tracer = newTracer()
		fs = newTimedFS(run.tracer)
		obs = &phaseObserver{tr: run.tracer, minNodes: int64(st.g.NumNodes() / 2)}
		dfs, sobs = fs, obs
	}
	reps := setupReps
	if p.tiny {
		reps = 2
	}
	rss := newRSSPeak()
	var live *liveServer
	for i := 0; i < reps; i++ {
		l, d, err := startServer(ctx, p, st.g, dfs, sobs)
		if err != nil {
			return nil, fmt.Errorf("server set-up: %w", err)
		}
		run.setup = append(run.setup, d.Seconds())
		rss.sample()
		if i < reps-1 {
			l.close()
		} else {
			live = l
		}
	}
	defer live.close()
	var h http.Handler = live.srv.Handler()
	var sspans *serverSpans
	if traced {
		sspans = &serverSpans{tr: run.tracer, next: h, dur: map[string][]float64{}, byID: map[int64]float64{}}
		h = sspans
		fs.reset()
	}
	live.ts = httptest.NewServer(h)

	ctr0 := live.srv.Counters().Snapshot()
	var gc gcStats
	gc.begin()
	var poll *epochPoller
	if traced {
		poll = startEpochPoller(live.srv, run.tracer)
	}
	res := driveLoad(p, sh, st, live.ts.URL, run.tracer, rss)
	if traced {
		poll.stop()
	}
	gc.end()
	run.memMB = rss.mib()

	run.compLat, run.reachLat, run.updLat = res.compLat, res.reachLat, res.updLat
	run.genLagP99 = max(quantile(res.readLag, 0.99), quantile(res.writeLag, 0.99))
	rep.attempted += res.attempted
	for _, f := range res.failures {
		rep.fail("%s", f)
	}
	if err := waitIdle(live.ts.URL); err != nil {
		rep.check(false, "server did not settle after load: %v", err)
	}
	ctr1 := live.srv.Counters().Snapshot()
	checkServed(live, st, res.accepted, sh.samples, genSeed(p.seed, 11), rep)
	rep.check(ctr1.IncrVerifyDivergence == 0, "incr self-check divergence %d", ctr1.IncrVerifyDivergence)

	if traced {
		out := run.layer
		addServeCounters(out, ctr0, ctr1)
		addRuntimeLayers(out, gc)
		addDetectLayers(out, obs.fullRuns())
		fs.addLayers(out)
		sspans.addLayers(out, run.tracer)
		poll.addLayers(out, res.updates)
		replaySnapshot(out, live.srv.Snapshot(), st.queries, run.tracer)
		out["bench.gen_lag_ms.p99"] = run.genLagP99
	}
	return run, nil
}

// addServeCounters stores the server and incremental-maintenance
// counter deltas over the load window.
func addServeCounters(out map[string]float64, a, b metrics.ServeSnapshot) {
	d := func(x, y int64) float64 { return float64(y - x) }
	out["server.shed"] = d(a.Shed, b.Shed)
	out["server.epoch_swaps"] = d(a.EpochSwaps, b.EpochSwaps)
	out["incr.epochs"] = d(a.IncrEpochs, b.IncrEpochs)
	out["incr.full_rebuilds"] = d(a.FullRebuilds, b.FullRebuilds)
	out["incr.verify_runs"] = d(a.IncrVerifyRuns, b.IncrVerifyRuns)
	out["incr.fallbacks"] = d(a.IncrFallbacks, b.IncrFallbacks)
	out["incr.divergence"] = d(a.IncrVerifyDivergence, b.IncrVerifyDivergence)
	out["incr.intra_inserts"] = d(a.IncrIntraInserts, b.IncrIntraInserts)
	out["incr.dag_inserts"] = d(a.IncrDagInserts, b.IncrDagInserts)
	out["incr.cycle_merges"] = d(a.IncrCycleMerges, b.IncrCycleMerges)
	out["incr.noop_deletes"] = d(a.IncrNoopDeletes, b.IncrNoopDeletes)
	out["incr.dag_deletes"] = d(a.IncrDagDeletes, b.IncrDagDeletes)
	out["incr.partials"] = d(a.IncrPartials, b.IncrPartials)
	out["incr.noops"] = d(a.IncrNoops, b.IncrNoops)
}

// loadResult is the client side of one load window.
type loadResult struct {
	compLat, reachLat, updLat []float64 // ms from due time
	readLag, writeLag         []float64 // ms the generator itself ran late
	attempted                 int64
	failures                  []string
	// accepted lists the batches the server took, in send order.
	accepted []int
	// updates records each acknowledged batch's due time, response time
	// and reported epoch, for the publish-lag split.
	updates []updateObs
}

type updateObs struct {
	due, done time.Time
	epoch     int64
}

// reply is the union of the fields the served endpoints answer with.
type reply struct {
	Epoch     int64  `json:"epoch"`
	Node      *int32 `json:"node"`
	Component int32  `json:"component"`
	Size      int64  `json:"size"`
	From      *int32 `json:"from"`
	To        *int32 `json:"to"`
	Reachable bool   `json:"reachable"`
	Applied   int    `json:"applied"`
}

// newClient returns an HTTP client that holds exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// do sends one request and decodes its reply. span, when non-zero, is
// passed to the server-side wrapper as the parent of its span.
func do(c *http.Client, method, url, payload string, span int64) (int, reply, error) {
	var rd io.Reader
	if payload != "" {
		rd = strings.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, reply{}, err
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, reply{}, err
	}
	var r reply
	if err := json.Unmarshal(b, &r); err != nil {
		return resp.StatusCode, reply{}, fmt.Errorf("decoding %q: %w", b, err)
	}
	return resp.StatusCode, r, nil
}

// openLoop calls send for request i at t0 + i/rate, on the calling
// goroutine, so at most one request is in flight. It returns how many
// requests were still unsent at stop, and how late the generator itself
// was for each request sent: the time past the later of its due time
// and the previous response.
func openLoop(n int, rate float64, t0, stop time.Time, send func(i int, due time.Time)) (unsent int, lag []float64) {
	lag = make([]float64, 0, n)
	prev := t0
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		if now.After(stop) {
			return n - i, lag
		}
		ready := due
		if prev.After(ready) {
			ready = prev
		}
		lag = append(lag, ms(now.Sub(ready)))
		send(i, due)
		prev = time.Now()
	}
	return 0, lag
}

// driveLoad runs the reader and the writer generators concurrently for
// the window and collects their client-side measurements. The writer
// samples the resident set into rss after each response.
func driveLoad(p params, sh serveShape, st *serveStream, base string, tr *tracer, rss *rssPeak) *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	t0 := time.Now().Add(20 * time.Millisecond)
	// A grace period past the window lets a generator that a stall put
	// behind finish; anything still unsent after it counts as failed.
	stop := t0.Add(p.duration() + 20*time.Second)
	// generate runs one generator; record, called under mu, stores one
	// completed request and returns the failure, if any, it found.
	generate := func(n int, rate float64, send func(i int, due time.Time) func() string) []float64 {
		unsent, lag := openLoop(n, rate, t0, stop, func(i int, due time.Time) {
			record := send(i, due)
			mu.Lock()
			defer mu.Unlock()
			res.attempted++
			if f := record(); f != "" {
				res.failures = append(res.failures, f)
			}
		})
		mu.Lock()
		defer mu.Unlock()
		res.attempted += int64(unsent)
		for i := 0; i < unsent; i++ {
			res.failures = append(res.failures, "request unsent at end of run")
		}
		return lag
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		var lastEpoch int64
		lag := generate(len(st.queries), sh.readRate, func(i int, due time.Time) func() string {
			q := st.queries[i]
			id := tr.id()
			start := time.Now()
			code, r, err := do(c, http.MethodGet, base+q.path(), "", id)
			done := time.Now()
			name := "client.componentof"
			if q.reach {
				name = "client.reachable"
			}
			tr.record(id, 0, name, start, done)
			return func() string {
				if q.reach {
					res.reachLat = append(res.reachLat, ms(done.Sub(due)))
				} else {
					res.compLat = append(res.compLat, ms(done.Sub(due)))
				}
				prev := lastEpoch
				lastEpoch = max(lastEpoch, r.Epoch)
				switch {
				case err != nil || code != http.StatusOK:
					return fmt.Sprintf("read %s: status %d err %v", q.path(), code, err)
				case r.Epoch < prev:
					return fmt.Sprintf("read connection epoch went back %d -> %d", prev, r.Epoch)
				case !q.reach && (r.Node == nil || *r.Node != q.a):
					return fmt.Sprintf("componentof %d answered for another node", q.a)
				case q.reach && (r.From == nil || r.To == nil || *r.From != q.a || *r.To != q.b):
					return fmt.Sprintf("reachable %d->%d answered for another pair", q.a, q.b)
				}
				return ""
			}
		})
		mu.Lock()
		res.readLag = lag
		mu.Unlock()
	}()
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		var lastEpoch int64
		lag := generate(len(st.bodies), sh.writeRate, func(i int, due time.Time) func() string {
			id := tr.id()
			start := time.Now()
			code, r, err := do(c, http.MethodPost, base+"/update?wait=1", st.bodies[i], id)
			done := time.Now()
			rss.sample()
			tr.record(id, 0, "client.update", start, done)
			return func() string {
				res.updLat = append(res.updLat, ms(done.Sub(due)))
				if err == nil && (code == http.StatusOK || code == http.StatusAccepted) {
					res.accepted = append(res.accepted, i)
				}
				prev := lastEpoch
				lastEpoch = max(lastEpoch, r.Epoch)
				switch {
				case err != nil || code != http.StatusOK:
					return fmt.Sprintf("update batch %d: status %d err %v", i, code, err)
				case r.Epoch < prev:
					return fmt.Sprintf("write connection epoch went back %d -> %d", prev, r.Epoch)
				case r.Applied != len(st.batches[i]):
					return fmt.Sprintf("update batch %d: applied %d of %d", i, r.Applied, len(st.batches[i]))
				}
				res.updates = append(res.updates, updateObs{due: due, done: done, epoch: r.Epoch})
				return ""
			}
		})
		mu.Lock()
		res.writeLag = lag
		mu.Unlock()
	}()
	wg.Wait()
	return res
}

// waitIdle polls /stats until the server has published every accepted
// update.
func waitIdle(base string) error {
	c := newClient()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(base + "/stats")
		if err != nil {
			return err
		}
		var st struct {
			Dirty bool `json:"dirty"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if !st.Dirty {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("still dirty after 30s")
}

// checkServed replays the accepted batches onto the benchmark's own edge
// model, then checks the served labeling against Tarjan on the model and
// a seeded sample of componentof/reachable answers against the model.
func checkServed(live *liveServer, st *serveStream, accepted []int, samples int, seed int64, rep *report) {
	m := newEdgeModel(st.g)
	for _, i := range accepted {
		for _, up := range st.batches[i] {
			m.apply(up)
		}
	}
	want, _ := seq.Tarjan(m.graph())
	sn := live.srv.Snapshot()
	rep.check(sn.Edges == m.edges, "served edge count %d, model %d", sn.Edges, m.edges)
	rep.check(incr.LabelsEquivalent(sn.Cond.NodeComp, want), "served labels differ from Tarjan on the model")

	size := make(map[int32]int64)
	for _, c := range want {
		size[c]++
	}
	// The served component ids and the model's labels must map one to one.
	fwd, rev := map[int32]int32{}, map[int32]int32{}
	seen := make([]bool, len(m.out))
	var queue []int32
	c := newClient()
	defer c.CloseIdleConnections()
	rng := rand.New(rand.NewSource(seed))
	n := len(m.out)
	for i := 0; i < samples; i++ {
		q := query{reach: i%2 == 1, a: int32(rng.Intn(n)), b: int32(rng.Intn(n))}
		code, r, err := do(c, http.MethodGet, live.ts.URL+q.path(), "", 0)
		if err != nil || code != http.StatusOK {
			rep.check(false, "sample %s: status %d err %v", q.path(), code, err)
			continue
		}
		if q.reach {
			exp := m.reaches(q.a, q.b, seen, queue)
			rep.check(r.Reachable == exp, "sample %s: served %v, model %v", q.path(), r.Reachable, exp)
			continue
		}
		l := want[q.a]
		f, okf := fwd[r.Component]
		b, okb := rev[l]
		ok := r.Size == size[l] && (!okf || f == l) && (!okb || b == r.Component)
		fwd[r.Component], rev[l] = l, r.Component
		rep.check(ok, "sample %s: component %d size %d, model size %d", q.path(), r.Component, r.Size, size[l])
	}
}

// serverSpans wraps Server.Handler and records one server-side span per
// request, parented to the client span named in the request header.
type serverSpans struct {
	tr   *tracer
	next http.Handler

	mu   sync.Mutex
	dur  map[string][]float64 // µs by path
	byID map[int64]float64    // µs by client span id
}

func (s *serverSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	t0 := time.Now()
	s.next.ServeHTTP(w, r)
	end := time.Now()
	s.tr.record(0, parent, "server"+r.URL.Path, t0, end)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dur[r.URL.Path] = append(s.dur[r.URL.Path], us(end.Sub(t0)))
	if parent != 0 {
		s.byID[parent] = us(end.Sub(t0))
	}
}

// addLayers stores the server-side handler times and the HTTP overhead:
// client span duration minus server span duration, per request.
func (s *serverSpans) addLayers(out map[string]float64, tr *tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out["server.componentof_us.p50"] = quantile(s.dur["/componentof"], 0.5)
	out["server.componentof_us.p99"] = quantile(s.dur["/componentof"], 0.99)
	out["server.reachable_us.p50"] = quantile(s.dur["/reachable"], 0.5)
	out["server.reachable_us.p99"] = quantile(s.dur["/reachable"], 0.99)
	out["server.update_us.p50"] = quantile(s.dur["/update"], 0.5)
	var over []float64
	for _, sp := range tr.snapshot() {
		if sd, ok := s.byID[sp.ID]; ok && sp.Parent == 0 && strings.HasPrefix(sp.Name, "client.") {
			over = append(over, us(sp.dur())-sd)
		}
	}
	out["http.overhead_us.p50"] = quantile(over, 0.5)
}

// epochPoller watches the served Snapshot pointer and records every
// published epoch it sees: when it was built, what its detection cost,
// and whether a full build (self-check or fallback) produced it. Each
// epoch it sees becomes a span ending at Snapshot.Built.
type epochPoller struct {
	srv  *server.Server
	tr   *tracer
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	built  map[int64]time.Time
	incrUS []float64
	fullMS []float64
}

func startEpochPoller(srv *server.Server, tr *tracer) *epochPoller {
	p := &epochPoller{srv: srv, tr: tr, done: make(chan struct{}), built: map[int64]time.Time{}}
	p.wg.Add(1)
	go p.loop()
	return p
}

func (p *epochPoller) loop() {
	defer p.wg.Done()
	t := time.NewTicker(500 * time.Microsecond)
	defer t.Stop()
	fulls := func() int64 {
		c := p.srv.Counters()
		return c.FullRebuilds.Load() + c.IncrVerifyRuns.Load()
	}
	last, lastFull := p.srv.Snapshot().Epoch, fulls()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
		}
		sn := p.srv.Snapshot()
		if sn.Epoch == last {
			continue
		}
		f := fulls()
		p.tr.record(0, 0, "server.epoch", sn.Built.Add(-sn.Detect), sn.Built)
		p.mu.Lock()
		p.built[sn.Epoch] = sn.Built
		// An epoch published between two polls is missed; the one seen
		// is classified by whether a full build ran since the last poll.
		if sn.Epoch == last+1 {
			if f != lastFull {
				p.fullMS = append(p.fullMS, ms(sn.Detect))
			} else {
				p.incrUS = append(p.incrUS, us(sn.Detect))
			}
		}
		p.mu.Unlock()
		last, lastFull = sn.Epoch, f
	}
}

func (p *epochPoller) stop() {
	close(p.done)
	p.wg.Wait()
}

// addLayers stores the epoch timings and splits each acknowledged
// update's latency into the wait for its epoch to publish and the
// handler's poll for it.
func (p *epochPoller) addLayers(out map[string]float64, ups []updateObs) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out["incr.epoch_us.p50"] = quantile(p.incrUS, 0.5)
	out["incr.epoch_us.p99"] = quantile(p.incrUS, 0.99)
	out["incr.full_build_ms.p50"] = quantile(p.fullMS, 0.5)
	var lag, wait []float64
	for _, u := range ups {
		b, ok := p.built[u.epoch]
		if !ok {
			continue
		}
		lag = append(lag, ms(b.Sub(u.due)))
		wait = append(wait, ms(u.done.Sub(b)))
	}
	out["server.publish_lag_ms.p50"] = quantile(lag, 0.5)
	out["server.wait_poll_ms.p50"] = quantile(wait, 0.5)
}

// replaySnapshot replays the stream's queries against the final served
// Snapshot directly, bypassing HTTP, and stores the Snapshot layer's
// times and the condensation's size.
func replaySnapshot(out map[string]float64, sn *server.Snapshot, qs []query, tr *tracer) {
	var comp, reach []float64
	for _, q := range qs {
		t0 := time.Now()
		if q.reach {
			sn.Reachable(q.a, q.b)
		} else {
			sn.ComponentOf(int64(q.a))
		}
		end := time.Now()
		if q.reach {
			reach = append(reach, us(end.Sub(t0)))
			tr.record(0, 0, "snapshot.Reachable", t0, end)
		} else {
			comp = append(comp, float64(end.Sub(t0).Nanoseconds()))
			tr.record(0, 0, "snapshot.ComponentOf", t0, end)
		}
	}
	out["snapshot.reachable_us.p50"] = quantile(reach, 0.5)
	out["snapshot.reachable_us.p99"] = quantile(reach, 0.99)
	out["snapshot.componentof_ns.p50"] = quantile(comp, 0.5)
	out["snapshot.dag_nodes"] = float64(sn.Cond.DAG.NumNodes())
	out["snapshot.dag_edges"] = float64(sn.Cond.DAG.NumEdges())
}
