package core

import (
	"context"
	"testing"
	"unsafe"

	"repro/gen"
)

// TestTaskBytes pins the in-memory size of a phase-2 task to the
// taskBytes constant the retained-footprint accounting uses. If the
// task struct grows, update taskBytes alongside it.
func TestTaskBytes(t *testing.T) {
	if got := unsafe.Sizeof(task{}); got != taskBytes {
		t.Fatalf("unsafe.Sizeof(task{}) = %d, want taskBytes = %d", got, taskBytes)
	}
}

// TestEngineWarmRunsMatchTarjan re-runs a persistent engine on the
// same graphs many times: every piece of retained state (arena
// buffers, worker pools, task backing, queue, color/comp arrays) is
// reused, so any cross-run aliasing or stale-state bug shows up as a
// partition that diverges from Tarjan's.
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
// multi-worker engine: root-task lists are drawn from worker 0's pool
// but freed into the pool of whichever worker finished the task, so
// without gathering the pools back the other workers' free lists grow
// on every run. After warm-up the retained scratch must stay flat.
func TestEnginePoolsSteadyStateAllocs(t *testing.T) {
	core := gen.RMAT(gen.DefaultRMAT(12, 8, 9))
	g := gen.WithTail(core, gen.TailConfig{
		Components: 1024, Alpha: 2.0, MaxSize: 32, AttachEdges: 2, ChainProb: 0.6, Seed: 9,
	})
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
	// Pooled buffers still grow their capacity now and then, when one
	// is handed a longer list than it ever held; drift instead adds
	// whole root-task lists on every run (over half the footprint in
	// 40 runs here).
	if after := en.retainedBytes(); after > warm+warm/20 {
		t.Fatalf("retained scratch grew from %d to %d bytes over 40 warm runs", warm, after)
	}
}
