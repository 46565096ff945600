package scc_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/gen"
	"repro/graph"
	"repro/scc"
)

// chaosGraph builds a graph whose Method2 run exercises every
// injection site: the R-MAT core yields trim rounds, BFS levels and
// Trim2 sweeps, and the power-law tail guarantees survivors into the
// WCC and recursive phases.
func chaosGraph() *graph.Graph {
	return gen.WithTail(gen.RMAT(gen.DefaultRMAT(13, 8, 5)), gen.TailConfig{
		Components:  512,
		Alpha:       2.2,
		MaxSize:     64,
		AttachEdges: 2,
		ChainProb:   0.4,
		Seed:        5,
	})
}

// TestChaosPanicMatrix injects a panic at every site, at one and at
// four workers, and checks the failure envelope each time: the run
// returns a typed *PanicError (never crashes), leaks no goroutines,
// and the engine is immediately reusable — a follow-up clean run
// produces the Tarjan partition.
func TestChaosPanicMatrix(t *testing.T) {
	g := chaosGraph()
	want, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	for _, site := range scc.ChaosSites() {
		// Each site runs under every kernel set that can actually hit
		// it: "peel"/"uf" exist only inside the worklist set's
		// counter-peeling trim and union-find WCC. "condense" and
		// "incr" live on the serving path (internal/server,
		// internal/incr), and "wal"/"snapshot" on the durability path
		// (internal/durable) — none of those is inside Detect, so a
		// plain run never hits them.
		if site == "condense" || site == "wal" || site == "snapshot" || site == "incr" {
			continue
		}
		kernels := []scc.Kernels{scc.KernelsWorklist, scc.KernelsLegacy}
		if site == "peel" || site == "uf" {
			kernels = []scc.Kernels{scc.KernelsWorklist}
		}
		for _, kern := range kernels {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", site, kern, workers), func(t *testing.T) {
					res, err := scc.Detect(g, scc.Options{
						Algorithm: scc.Method2,
						Workers:   workers,
						Seed:      5,
						Kernels:   kern,
						Chaos:     &scc.ChaosConfig{PanicAt: map[string]int64{site: 1}},
					})
					if res != nil {
						t.Fatalf("panicking run returned a result: %+v", res)
					}
					var pe *scc.PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("want *PanicError, got %v", err)
					}
					if !strings.Contains(fmt.Sprint(pe.Value), "chaos: injected panic at "+site) {
						t.Fatalf("panic value %v does not name site %s", pe.Value, site)
					}
					if len(pe.Stack) == 0 {
						t.Fatal("PanicError carries no stack")
					}
					var se *scc.Error
					if !errors.As(err, &se) || se.Op != "detect" {
						t.Fatalf("want *scc.Error with Op=detect, got %v", err)
					}
					waitGoroutines(t, base)

					// The engine must be reusable after the panic tore a run
					// down: same graph, same options, no chaos.
					clean, err := scc.Detect(g, scc.Options{
						Algorithm: scc.Method2, Workers: workers, Seed: 5, Kernels: kern,
					})
					if err != nil {
						t.Fatalf("clean run after panic failed: %v", err)
					}
					if !scc.SamePartition(clean.Comp, want.Comp) {
						t.Fatal("clean run after panic diverges from Tarjan")
					}
				})
			}
		}
	}
}

// TestChaosPeelOrdinalsOnEngine drives the "peel" site at exact hit
// ordinals through one pinned two-worker engine, so the second fires
// mid-cascade with the degree counters and peel frontier half-updated.
// The parallel trim cascade leaves two to four peel waves on this
// graph (3,000 measured runs: never fewer than two), so both ordinals
// fire every time. Each sabotaged run fails with a typed *PanicError
// naming the site, and the SAME engine instance then serves a clean
// run whose partition matches Tarjan.
func TestChaosPeelOrdinalsOnEngine(t *testing.T) {
	g := chaosGraph()
	want, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for _, ordinal := range []int64{1, 2} {
		res, err := eng.Detect(ctx, g, scc.WithChaos(&scc.ChaosConfig{
			PanicAt: map[string]int64{"peel": ordinal},
		}))
		if res != nil {
			t.Fatalf("peel:%d: panicking run returned a result", ordinal)
		}
		var pe *scc.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("peel:%d: want *PanicError, got %v", ordinal, err)
		}
		if !strings.Contains(fmt.Sprint(pe.Value), "chaos: injected panic at peel") {
			t.Fatalf("peel:%d: panic value %v does not name the site", ordinal, pe.Value)
		}
		clean, err := eng.Detect(ctx, g)
		if err != nil {
			t.Fatalf("clean run after peel:%d panic: %v", ordinal, err)
		}
		if !scc.SamePartition(clean.Comp, want.Comp) {
			t.Fatalf("clean run after peel:%d panic diverges from Tarjan", ordinal)
		}
	}
}

// TestChaosStallTriggersWatchdog wedges the first BFS level forever
// (StallFor = 0) and checks that the watchdog fires: the observer sees
// EventStalled, the run aborts with ErrStalled within a few windows,
// and nothing leaks.
func TestChaosStallTriggersWatchdog(t *testing.T) {
	g := chaosGraph()
	base := runtime.NumGoroutine()

	var mu sync.Mutex
	var stalledEvents int
	obs := scc.ObserverFunc(func(ev scc.Event) {
		if ev.Type == scc.EventStalled {
			mu.Lock()
			stalledEvents++
			mu.Unlock()
		}
	})

	start := time.Now()
	res, err := scc.Detect(g, scc.Options{
		Algorithm:    scc.Method2,
		Workers:      4,
		Seed:         5,
		StallTimeout: 200 * time.Millisecond,
		Observer:     obs,
		Chaos:        &scc.ChaosConfig{StallAt: map[string]int64{"bfs": 1}},
	})
	elapsed := time.Since(start)

	if res != nil {
		t.Fatalf("stalled run returned a result: %+v", res)
	}
	if !errors.Is(err, scc.ErrStalled) {
		t.Fatalf("errors.Is(err, ErrStalled) = false; err = %v", err)
	}
	// Window 200ms, poll 50ms, grace 200ms: detection plus forced abort
	// stays well under ten windows even on a loaded machine.
	if elapsed > 5*time.Second {
		t.Fatalf("stall abort took %v", elapsed)
	}
	mu.Lock()
	ne := stalledEvents
	mu.Unlock()
	if ne != 1 {
		t.Fatalf("observed %d EventStalled, want 1", ne)
	}
	waitGoroutines(t, base)

	// A slow round (bounded stall) must NOT trip the watchdog: the
	// worker resumes before the window closes and the run completes.
	res, err = scc.Detect(g, scc.Options{
		Algorithm:    scc.Method2,
		Workers:      4,
		Seed:         5,
		StallTimeout: 2 * time.Second,
		Chaos: &scc.ChaosConfig{
			StallAt:  map[string]int64{"bfs": 1},
			StallFor: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("slow-but-progressing run aborted: %v", err)
	}
	want, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	if !scc.SamePartition(res.Comp, want.Comp) {
		t.Fatal("slow run diverges from Tarjan")
	}
}

// TestStallTimeoutRespectsContextDeadline checks that a caller's
// cancellation reaches a worker wedged inside a barrier: kernels only
// poll ctx at round boundaries, so without the watchdog's grace-abort
// the wedge would outlive the context forever.
func TestStallTimeoutRespectsContextDeadline(t *testing.T) {
	g := chaosGraph()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	res, err := scc.DetectContext(ctx, g, scc.Options{
		Algorithm:    scc.Method2,
		Workers:      4,
		Seed:         5,
		StallTimeout: 10 * time.Second, // watchdog armed, but the deadline is much sooner
		Chaos:        &scc.ChaosConfig{StallAt: map[string]int64{"bfs": 1}},
	})
	if res != nil {
		t.Fatalf("deadline-exceeded run returned a result: %+v", res)
	}
	if !errors.Is(err, scc.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
	waitGoroutines(t, base)
}

// TestMemoryBudgetDegrades pins a limit between the one-worker and
// four-worker estimates: the run must degrade (note the steps in
// Metrics.DegradedMode) and still produce the Tarjan partition.
func TestMemoryBudgetDegrades(t *testing.T) {
	g := chaosGraph()
	n := g.NumNodes()
	opts := scc.Options{Algorithm: scc.Method2, Workers: 4, Seed: 5}

	full := scc.EstimateMemory(n, opts)
	floorOpts := opts
	floorOpts.Workers = 1
	floor := scc.EstimateMemory(n, floorOpts)
	if floor >= full {
		t.Fatalf("estimate not monotone in workers: floor %d >= full %d", floor, full)
	}

	opts.MemoryLimit = floor // forces the ladder down to one worker
	res, err := scc.Detect(g, opts)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if res.Metrics.DegradedMode == "" {
		t.Fatal("run under tight budget reports no degradation")
	}
	if !strings.Contains(res.Metrics.DegradedMode, "workers=1") {
		t.Fatalf("DegradedMode = %q, want a workers=1 step", res.Metrics.DegradedMode)
	}
	want, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	if !scc.SamePartition(res.Comp, want.Comp) {
		t.Fatal("degraded run diverges from Tarjan")
	}

	// A comfortable limit must not degrade anything.
	opts.MemoryLimit = 2 * full
	res, err = scc.Detect(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.DegradedMode != "" {
		t.Fatalf("comfortable budget degraded the run: %q", res.Metrics.DegradedMode)
	}
}

// TestMemoryBudgetTooSmall checks that an unsatisfiable limit is
// rejected up front with the typed sentinel — no work, no partial
// state, engine still reusable.
func TestMemoryBudgetTooSmall(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 2))
	res, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2, MemoryLimit: 1})
	if res != nil {
		t.Fatalf("over-budget run returned a result: %+v", res)
	}
	if !errors.Is(err, scc.ErrMemoryBudget) {
		t.Fatalf("errors.Is(err, ErrMemoryBudget) = false; err = %v", err)
	}
	if _, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2}); err != nil {
		t.Fatalf("engine unusable after budget rejection: %v", err)
	}
}

// TestEstimateMemoryNonEngine: sequential and extension algorithms do
// not run on the parallel engine, so there is nothing to budget.
func TestEstimateMemoryNonEngine(t *testing.T) {
	for _, alg := range []scc.Algorithm{scc.Tarjan, scc.OBF} {
		if est := scc.EstimateMemory(1<<16, scc.Options{Algorithm: alg}); est != 0 {
			t.Fatalf("%v estimate = %d, want 0", alg, est)
		}
	}
	if est := scc.EstimateMemory(1<<16, scc.Options{Algorithm: scc.Method2}); est <= 0 {
		t.Fatalf("engine estimate = %d, want > 0", est)
	}
}

// TestRobustnessOptionValidation covers the new options' error
// taxonomy.
func TestRobustnessOptionValidation(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 4, 1))
	cases := []struct {
		field string
		opts  scc.Options
	}{
		{"StallTimeout", scc.Options{StallTimeout: -time.Second}},
		{"MemoryLimit", scc.Options{MemoryLimit: -1}},
		{"Chaos.PanicAt", scc.Options{Chaos: &scc.ChaosConfig{PanicAt: map[string]int64{"nosuch": 1}}}},
		{"Chaos.PanicAt", scc.Options{Chaos: &scc.ChaosConfig{PanicAt: map[string]int64{"trim": 0}}}},
		{"Chaos.StallAt", scc.Options{Chaos: &scc.ChaosConfig{StallAt: map[string]int64{"bogus": 2}}}},
		{"Chaos.StallFor", scc.Options{Chaos: &scc.ChaosConfig{StallFor: -time.Second}}},
	}
	for _, tc := range cases {
		_, err := scc.Detect(g, tc.opts)
		if !errors.Is(err, scc.ErrInvalidOption) {
			t.Fatalf("%s: errors.Is(ErrInvalidOption) = false; err = %v", tc.field, err)
		}
		var oe *scc.OptionError
		if !errors.As(err, &oe) || oe.Field != tc.field {
			t.Fatalf("%s: got %v", tc.field, err)
		}
	}
}

// TestParseChaosSpec covers the public flag-spec parser.
func TestParseChaosSpec(t *testing.T) {
	m, err := scc.ParseChaosSpec("bfs:2,task")
	if err != nil || m["bfs"] != 2 || m["task"] != 1 || len(m) != 2 {
		t.Fatalf("ParseChaosSpec = %v, %v", m, err)
	}
	if m, err := scc.ParseChaosSpec(""); err != nil || m != nil {
		t.Fatalf("empty spec: %v, %v", m, err)
	}
	if _, err := scc.ParseChaosSpec("trim:0"); err == nil {
		t.Fatal("bad ordinal accepted")
	}
	sites := scc.ChaosSites()
	if len(sites) != 11 {
		t.Fatalf("ChaosSites = %v", sites)
	}
	for _, s := range sites {
		if _, err := scc.ParseChaosSpec(s); err != nil {
			t.Fatalf("site %q does not round-trip: %v", s, err)
		}
	}
}
