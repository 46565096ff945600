package core

import (
	"context"
	"testing"
	"unsafe"

	"repro/gen"
	"repro/graph"
)

// TestTaskBytes pins the in-memory size of a phase-2 task to the
// taskBytes constant the retained-footprint accounting uses. If the
// task struct grows, update taskBytes alongside it.
func TestTaskBytes(t *testing.T) {
	if got := unsafe.Sizeof(task{}); got != taskBytes {
		t.Fatalf("unsafe.Sizeof(task{}) = %d, want taskBytes = %d", got, taskBytes)
	}
}

// TestEstimateMemoryQueueTerm pins the phase-2 queue's share of the
// memory estimate: each worker's local queue is bounded at 2K tasks of
// taskBytes each, so one more task of batch size adds 2 tasks a worker.
func TestEstimateMemoryQueueTerm(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		k1 := EstimateMemory(1<<10, Method2, Options{Workers: workers, K: 1})
		k2 := EstimateMemory(1<<10, Method2, Options{Workers: workers, K: 2})
		if want := int64(workers) * 2 * taskBytes; k2-k1 != want {
			t.Fatalf("workers=%d: K=2 adds %d bytes to K=1's estimate, want %d", workers, k2-k1, want)
		}
	}
}

// TestEngineWarmRunsMatchTarjan re-runs a persistent engine on the
// same graphs many times: every piece of retained state (arena
// buffers, the phase-2 order array, task backing, queue, color/comp
// arrays) is reused, so any cross-run aliasing or stale-state bug
// shows up as a partition that diverges from Tarjan's.
func TestEngineWarmRunsMatchTarjan(t *testing.T) {
	big := gen.RMAT(gen.DefaultRMAT(11, 8, 6))
	small := gen.RMAT(gen.DefaultRMAT(8, 6, 7))
	for _, workers := range []int{1, 4} {
		en := NewEngine(Method2, Options{Workers: workers, Seed: 3})
		for round := 0; round < 4; round++ {
			res, err := en.Run(context.Background(), big, PerRun{})
			if err != nil {
				t.Fatalf("workers=%d round=%d big: %v", workers, round, err)
			}
			checkAgainstTarjan(t, big, Method2, res)
			res, err = en.Run(context.Background(), small, PerRun{})
			if err != nil {
				t.Fatalf("workers=%d round=%d small: %v", workers, round, err)
			}
			checkAgainstTarjan(t, small, Method2, res)
		}
		en.Close()
	}
}

// TestEngineShrinksUnderBudget verifies the retained-footprint
// contract: scratch grown by a large unbudgeted run counts against a
// later run's memory budget, and the engine sheds it (rather than
// failing or degrading the small run) when the budget cannot cover
// the old high-water state.
func TestEngineShrinksUnderBudget(t *testing.T) {
	big := gen.RMAT(gen.DefaultRMAT(13, 8, 3))
	small := gen.RMAT(gen.DefaultRMAT(8, 6, 4))

	en := NewEngine(Method2, Options{Workers: 2, Seed: 5})
	defer en.Close()
	if _, err := en.Run(context.Background(), big, PerRun{}); err != nil {
		t.Fatalf("big run: %v", err)
	}
	grown := en.retainedBytes()
	if grown == 0 {
		t.Fatal("retainedBytes() = 0 after a large run; accounting is broken")
	}

	limit := EstimateMemory(small.NumNodes(), Method2, en.opt)
	if limit >= grown {
		t.Fatalf("test graphs too close in size: limit %d >= grown %d", limit, grown)
	}
	res, err := en.Run(context.Background(), small,
		PerRun{MemoryLimit: limit})
	if err != nil {
		t.Fatalf("budgeted small run: %v", err)
	}
	if res.Degraded != "" {
		t.Fatalf("small run degraded (%q); shrink should have freed the budget", res.Degraded)
	}
	checkAgainstTarjan(t, small, Method2, res)
	if after := en.retainedBytes(); after > limit {
		t.Fatalf("retainedBytes() = %d after budgeted run, want <= %d", after, limit)
	}
}

// TestEnginePoolsSteadyStateAllocs pins the cross-run footprint of a
// multi-worker engine on a graph that leaves phase 2 about a thousand
// seed tasks: after warm-up, the retained scratch must stay flat.
func TestEnginePoolsSteadyStateAllocs(t *testing.T) {
	g := tailGraph()
	en := NewEngine(Method2, Options{Workers: 2, Seed: 3})
	defer en.Close()
	run := func() {
		if _, err := en.Run(context.Background(), g, PerRun{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		run()
	}
	warm := en.retainedBytes()
	for i := 0; i < 40; i++ {
		run()
	}
	// Pooled buffers may still grow their capacity now and then, when
	// one is handed a longer list than it ever held.
	if after := en.retainedBytes(); after > warm+warm/20 {
		t.Fatalf("retained scratch grew from %d to %d bytes over 40 warm runs", warm, after)
	}
}

// TestEngineBudgetRepinsGangAndQueue checks that the engine's arena,
// gang and phase-2 queue always have the shape of the run in flight:
// a run a memory budget degrades to fewer workers, or to K=1, pins a
// matching arena and queue, and the next undegraded run or batch pins
// the engine's own shape again. Every run must still match Tarjan.
func TestEngineBudgetRepinsGangAndQueue(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
	n := g.NumNodes()
	en := NewEngine(Method2, Options{Workers: 4, Seed: 3})
	defer en.Close()
	half, floor := en.opt, en.opt
	half.Workers = 2
	floor.Workers, floor.K = 1, 1
	ctx := context.Background()
	for _, tc := range []struct {
		limit   int64
		workers int
		k       int
	}{
		{0, 4, 8},
		{EstimateMemory(n, Method2, half), 2, 8},
		{0, 4, 8},
		{EstimateMemory(n, Method2, floor), 1, 1},
		{EstimateMemory(n, Method2, half), 2, 8},
	} {
		res, err := en.Run(ctx, g, PerRun{MemoryLimit: tc.limit})
		if err != nil {
			t.Fatalf("limit %d: %v", tc.limit, err)
		}
		if got := en.ar.Workers(); got != tc.workers || en.ar.Gang().Workers() != tc.workers {
			t.Fatalf("limit %d: arena at %d workers (gang %d), want %d", tc.limit, got, en.ar.Gang().Workers(), tc.workers)
		}
		if en.pq.Workers() != tc.workers || en.pq.K() != tc.k {
			t.Fatalf("limit %d: queue at workers=%d K=%d, want %d/%d", tc.limit, en.pq.Workers(), en.pq.K(), tc.workers, tc.k)
		}
		checkAgainstTarjan(t, g, Method2, res)
	}
	// The last run left the engine degraded; a batch runs at the
	// engine's own worker count.
	if _, err := en.RunBatch(ctx, []*graph.Graph{g}); err != nil {
		t.Fatal(err)
	}
	if got := en.ar.Workers(); got != 4 {
		t.Fatalf("batch after a degraded run: arena at %d workers, want 4", got)
	}
}
