package scc_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/scc"
)

// engineGraph is the small-world graph the engine lifecycle suite
// runs on: big enough to exercise every Method2 phase, small enough
// to keep 100-run alloc pins fast.
func engineGraph() *graph.Graph {
	return gen.RMAT(gen.DefaultRMAT(10, 8, 6))
}

// TestEngineMatchesOneShot runs a warm engine repeatedly, across
// graphs of different sizes, and checks every run against Tarjan —
// the differential proof that state reuse (arena, queue, color/comp,
// result storage) never leaks one run's answers into the next.
func TestEngineMatchesOneShot(t *testing.T) {
	graphs := []*graph.Graph{
		gen.RMAT(gen.DefaultRMAT(10, 8, 6)),
		gen.RMAT(gen.DefaultRMAT(8, 6, 7)),  // shrinks the working set
		gen.RMAT(gen.DefaultRMAT(11, 8, 8)), // grows past the high-water mark
		graph.FromEdges(1, nil),             // degenerate
		gen.RMAT(gen.DefaultRMAT(9, 8, 9)),  // shrinks again
	}
	for _, workers := range []int{1, 4} {
		e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: workers, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for gi, g := range graphs {
				res, err := e.Detect(context.Background(), g)
				if err != nil {
					t.Fatalf("w%d round %d graph %d: %v", workers, round, gi, err)
				}
				want, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
				if err != nil {
					t.Fatal(err)
				}
				if res.NumSCCs != want.NumSCCs || !scc.SamePartition(res.Comp, want.Comp) {
					t.Fatalf("w%d round %d graph %d: engine partition diverges from Tarjan", workers, round, gi)
				}
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineBusy holds a run in flight (an observer blocked on a
// channel) and checks that concurrent Detect and DetectBatch fail
// fast with ErrEngineBusy instead of queueing or racing.
func TestEngineBusy(t *testing.T) {
	g := engineGraph()
	e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	obs := scc.ObserverFunc(func(scc.Event) {
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	done := make(chan error, 1)
	go func() {
		_, err := e.Detect(context.Background(), g, scc.WithObserver(obs))
		done <- err
	}()
	<-entered

	if _, err := e.Detect(context.Background(), g); !errors.Is(err, scc.ErrEngineBusy) {
		t.Fatalf("concurrent Detect: want ErrEngineBusy, got %v", err)
	}
	if _, err := e.DetectBatch(context.Background(), []*graph.Graph{g}); !errors.Is(err, scc.ErrEngineBusy) {
		t.Fatalf("concurrent DetectBatch: want ErrEngineBusy, got %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocked run failed: %v", err)
	}
	// The engine is free again once the in-flight run returns.
	if _, err := e.Detect(context.Background(), g); err != nil {
		t.Fatalf("Detect after release: %v", err)
	}
}

// TestEngineClosed pins the after-Close contract: every entry point
// fails with an error wrapping ErrEngineClosed, and Close itself is
// idempotent.
func TestEngineClosed(t *testing.T) {
	g := engineGraph()
	e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Detect(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Detect(context.Background(), g); !errors.Is(err, scc.ErrEngineClosed) {
		t.Fatalf("Detect after Close: want ErrEngineClosed, got %v", err)
	}
	if _, err := e.DetectBatch(context.Background(), []*graph.Graph{g}); !errors.Is(err, scc.ErrEngineClosed) {
		t.Fatalf("DetectBatch after Close: want ErrEngineClosed, got %v", err)
	}
	var se *scc.Error
	_, err = e.Detect(context.Background(), g)
	if !errors.As(err, &se) || se.Op != "detect" {
		t.Fatalf("closed-engine error envelope: got %v", err)
	}
}

// TestEngineCloseLeaksNothing creates engines, runs them, closes
// them, and checks the goroutine count settles back to the baseline —
// the gang and every queue goroutine must join on Close.
func TestEngineCloseLeaksNothing(t *testing.T) {
	g := engineGraph()
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Detect(context.Background(), g); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DetectBatch(context.Background(), []*graph.Graph{g, g}); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
}

// TestEngineSteadyStateAllocs is the tentpole pin: a warm
// single-worker engine performs zero allocations per Detect across
// 100 repeated runs. Everything the hot path touches — arena buffers,
// the phase-2 queue, color/comp arrays, the Result and its Comp —
// must come from engine-retained storage.
func TestEngineSteadyStateAllocs(t *testing.T) {
	g := engineGraph()
	e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	run := func() {
		if _, err := e.Detect(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the arena and queue to the graph's high-water mark
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("Engine.Detect allocates %.2f objects/run in steady state, want 0", avg)
	}
}

// TestEngineRunOptionPrecedence checks the override layer: a RunOption
// replaces the engine-level Options default for exactly one run, and
// an explicit zero (WithObserver(nil), WithMemoryLimit(0),
// WithChaos(nil)) lifts an engine-level observer, budget or injector.
func TestEngineRunOptionPrecedence(t *testing.T) {
	g := engineGraph()
	var defEvents, runEvents int
	defObs := scc.ObserverFunc(func(scc.Event) { defEvents++ })
	runObs := scc.ObserverFunc(func(scc.Event) { runEvents++ })

	e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 1, Observer: defObs})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	if _, err := e.Detect(ctx, g); err != nil {
		t.Fatal(err)
	}
	if defEvents == 0 {
		t.Fatal("engine-level observer saw no events")
	}

	defBefore := defEvents
	if _, err := e.Detect(ctx, g, scc.WithObserver(runObs)); err != nil {
		t.Fatal(err)
	}
	if runEvents == 0 {
		t.Fatal("per-run observer saw no events")
	}
	if defEvents != defBefore {
		t.Fatal("engine-level observer saw events on an overridden run")
	}

	if _, err := e.Detect(ctx, g, scc.WithObserver(nil)); err != nil {
		t.Fatal(err)
	}
	if defEvents != defBefore {
		t.Fatal("WithObserver(nil) did not silence the engine-level observer")
	}

	// The default is restored once the overriding run ends.
	if _, err := e.Detect(ctx, g); err != nil {
		t.Fatal(err)
	}
	if defEvents == defBefore {
		t.Fatal("engine-level observer did not resume after the override")
	}

	// An engine-level budget below the floor fails every plain run;
	// WithMemoryLimit(0) lifts it for one run.
	budgeted, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 1, MemoryLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer budgeted.Close()
	if _, err := budgeted.Detect(ctx, g); !errors.Is(err, scc.ErrMemoryBudget) {
		t.Fatalf("engine-level MemoryLimit: want ErrMemoryBudget, got %v", err)
	}
	if _, err := budgeted.Detect(ctx, g, scc.WithMemoryLimit(0)); err != nil {
		t.Fatalf("WithMemoryLimit(0) did not lift the engine-level budget: %v", err)
	}
	if _, err := budgeted.Detect(ctx, g); !errors.Is(err, scc.ErrMemoryBudget) {
		t.Fatalf("engine-level MemoryLimit did not resume after the override: %v", err)
	}

	// An engine-level chaos panic fails every plain run; WithChaos(nil)
	// runs clean.
	chaotic, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 1,
		Chaos: &scc.ChaosConfig{PanicAt: map[string]int64{"trim": 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer chaotic.Close()
	var pe *scc.PanicError
	if _, err := chaotic.Detect(ctx, g); !errors.As(err, &pe) {
		t.Fatalf("engine-level Chaos: want *PanicError, got %v", err)
	}
	if _, err := chaotic.Detect(ctx, g, scc.WithChaos(nil)); err != nil {
		t.Fatalf("WithChaos(nil) did not disable the engine-level injector: %v", err)
	}
	if _, err := chaotic.Detect(ctx, g); !errors.As(err, &pe) {
		t.Fatalf("engine-level Chaos did not resume after the override: %v", err)
	}
}

// TestEngineRunOptionValidation checks that per-run values flow
// through the same validation as construction options.
func TestEngineRunOptionValidation(t *testing.T) {
	g := engineGraph()
	e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	_, err = e.Detect(context.Background(), g, scc.WithMemoryLimit(-1))
	var oe *scc.OptionError
	if !errors.As(err, &oe) || oe.Field != "WithMemoryLimit" {
		t.Fatalf("WithMemoryLimit(-1): want *OptionError{Field: WithMemoryLimit}, got %v", err)
	}
	_, err = e.Detect(context.Background(), g,
		scc.WithChaos(&scc.ChaosConfig{PanicAt: map[string]int64{"no-such-site": 1}}))
	if !errors.As(err, &oe) || !errors.Is(err, scc.ErrInvalidOption) {
		t.Fatalf("WithChaos(bad site): want *OptionError, got %v", err)
	}
	// The engine still works after rejected runs.
	if _, err := e.Detect(context.Background(), g); err != nil {
		t.Fatal(err)
	}
}

// TestEngineShrinkOnBudget is the satellite bugfix pin at the public
// layer: after an unbudgeted run on a large graph grows the engine's
// high-water pool, a small-graph run under WithMemoryLimit sized for
// the small graph must succeed undegraded — the retained large
// footprint is shed rather than counted against (or hidden from) the
// budget.
func TestEngineShrinkOnBudget(t *testing.T) {
	big := gen.RMAT(gen.DefaultRMAT(13, 8, 3))
	small := gen.RMAT(gen.DefaultRMAT(8, 6, 4))
	opts := scc.Options{Algorithm: scc.Method2, Workers: 2, Seed: 1}
	limit := scc.EstimateMemory(small.NumNodes(), opts)
	if bigEst := scc.EstimateMemory(big.NumNodes(), opts); bigEst <= limit {
		t.Fatalf("test graphs too close: big estimate %d, small limit %d", bigEst, limit)
	}

	e, err := scc.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Detect(ctx, big); err != nil {
		t.Fatal(err)
	}
	res, err := e.Detect(ctx, small, scc.WithMemoryLimit(limit))
	if err != nil {
		t.Fatalf("budgeted small run after large run: %v", err)
	}
	if res.Metrics.DegradedMode != "" {
		t.Fatalf("small run degraded (%q) despite a limit sized for it", res.Metrics.DegradedMode)
	}
	want, err := scc.Detect(small, scc.Options{Algorithm: scc.Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	if !scc.SamePartition(res.Comp, want.Comp) {
		t.Fatal("budgeted run diverges from Tarjan")
	}
}

// TestEngineChaosPerRun proves injectors are rebuilt per run: the same
// WithChaos ordinal fires on every run it is passed to, and clean runs
// in between see no injection — hit counters never drift across a
// request stream.
func TestEngineChaosPerRun(t *testing.T) {
	g := chaosGraph() // guarantees survivors into the recursive phase
	e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	boom := scc.WithChaos(&scc.ChaosConfig{PanicAt: map[string]int64{"task": 1}})

	for round := 0; round < 2; round++ {
		var pe *scc.PanicError
		if _, err := e.Detect(ctx, g, boom); !errors.As(err, &pe) {
			t.Fatalf("round %d: want *PanicError, got %v", round, err)
		}
		res, err := e.Detect(ctx, g)
		if err != nil {
			t.Fatalf("round %d: clean run after panic: %v", round, err)
		}
		want, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
		if err != nil {
			t.Fatal(err)
		}
		if !scc.SamePartition(res.Comp, want.Comp) {
			t.Fatalf("round %d: clean run after panic diverges from Tarjan", round)
		}
	}
}

// TestEngineDetectBatch checks batch semantics: per-graph results
// match per-graph detection, a nil entry fails only its own slot, and
// a pre-canceled context fails the whole batch typed.
func TestEngineDetectBatch(t *testing.T) {
	graphs := []*graph.Graph{
		gen.RMAT(gen.DefaultRMAT(8, 6, 1)),
		nil,
		gen.RMAT(gen.DefaultRMAT(9, 6, 2)),
		graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}}),
	}
	e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	out, err := e.DetectBatch(context.Background(), graphs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(graphs) {
		t.Fatalf("got %d results for %d graphs", len(out), len(graphs))
	}
	for i, g := range graphs {
		if g == nil {
			if !errors.Is(out[i].Err, scc.ErrNilGraph) {
				t.Fatalf("entry %d: want ErrNilGraph, got %v", i, out[i].Err)
			}
			continue
		}
		if out[i].Err != nil {
			t.Fatalf("entry %d: %v", i, out[i].Err)
		}
		want, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
		if err != nil {
			t.Fatal(err)
		}
		if out[i].NumSCCs != want.NumSCCs || !scc.SamePartition(out[i].Comp, want.Comp) {
			t.Fatalf("entry %d: batch partition diverges from Tarjan", i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.DetectBatch(ctx, graphs); !errors.Is(err, scc.ErrCanceled) {
		t.Fatalf("canceled batch: want ErrCanceled, got %v", err)
	}
}

// TestEngineSequentialAlgorithms checks that an engine built for a
// sequential algorithm detects with it and still serves DetectBatch
// (pinning its gang lazily on first use).
func TestEngineSequentialAlgorithms(t *testing.T) {
	g := engineGraph()
	for _, alg := range []scc.Algorithm{scc.Tarjan, scc.Kosaraju} {
		e, err := scc.New(scc.Options{Algorithm: alg, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Detect(context.Background(), g)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Algorithm != alg {
			t.Fatalf("result algorithm %v, want %v", res.Algorithm, alg)
		}
		out, err := e.DetectBatch(context.Background(), []*graph.Graph{g})
		if err != nil {
			t.Fatalf("%v batch: %v", alg, err)
		}
		if !scc.SamePartition(out[0].Comp, res.Comp) {
			t.Fatalf("%v: batch diverges from Detect", alg)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineConstructionErrors checks the single-validation-site
// contract: New rejects what DetectContext rejects, with the same
// *OptionError type, before pinning any resource.
func TestEngineConstructionErrors(t *testing.T) {
	cases := []scc.Options{
		{Algorithm: scc.Method2, K: -1},
		{Algorithm: scc.Algorithm(99)},
		{Algorithm: scc.Method2, GiantThreshold: 2},
		{Algorithm: scc.Method2, MemoryLimit: -5},
	}
	base := runtime.NumGoroutine()
	for i, opts := range cases {
		e, err := scc.New(opts)
		if e != nil || err == nil {
			t.Fatalf("case %d: New accepted invalid options", i)
		}
		var oe *scc.OptionError
		if !errors.As(err, &oe) || !errors.Is(err, scc.ErrInvalidOption) {
			t.Fatalf("case %d: want *OptionError, got %v", i, err)
		}
		if _, oneShotErr := scc.Detect(engineGraph(), opts); oneShotErr == nil {
			t.Fatalf("case %d: one-shot accepted what New rejected", i)
		}
	}
	waitGoroutines(t, base)

	e, err := scc.New(scc.Options{Algorithm: scc.Method2})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
}

// BenchmarkEngineDetect measures the warm-engine steady state the
// alloc pin guards; run with -benchmem to see the 0 B/op, 0 allocs/op
// profile.
func BenchmarkEngineDetect(b *testing.B) {
	g := engineGraph()
	e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Detect(ctx, g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Detect(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineNilGraph checks the nil-graph error from the engine path.
func TestEngineNilGraph(t *testing.T) {
	e, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Detect(context.Background(), nil); !errors.Is(err, scc.ErrNilGraph) {
		t.Fatalf("want ErrNilGraph, got %v", err)
	}
}
