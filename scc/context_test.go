package scc_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/gen"
	"repro/scc"
)

// cancelOn cancels the run from inside the observer the first time an
// event of the given type arrives — a deterministic mid-phase cancel.
type cancelOn struct {
	typ    scc.EventType
	cancel context.CancelFunc
	once   sync.Once
	seen   sync.Map // EventType → struct{} observed before the cancel fired
}

func (c *cancelOn) Observe(ev scc.Event) {
	c.seen.Store(ev.Type, struct{}{})
	if ev.Type == c.typ {
		c.once.Do(c.cancel)
	}
}

// waitGoroutines polls until the goroutine count settles at or below
// base (plus slack for runtime housekeeping), failing after a timeout
// — the leak check for canceled runs.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDetectContextCancelMidPhase cancels a Method2 run on a
// 1M-edge R-MAT graph during the first trim round and checks that the
// run unwinds promptly, reports the typed error, and leaks nothing.
func TestDetectContextCancelMidPhase(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(16, 16, 1)) // 2^16 nodes, ~1M edges
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelOn{typ: scc.EventTrimRound, cancel: cancel}

	start := time.Now()
	res, err := scc.DetectContext(ctx, g, scc.Options{Algorithm: scc.Method2, Seed: 1, Observer: obs})
	elapsed := time.Since(start)

	if res != nil {
		t.Fatalf("canceled run returned a result: %+v", res)
	}
	if !errors.Is(err, scc.ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false; err = %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false; err = %v", err)
	}
	var se *scc.Error
	if !errors.As(err, &se) || se.Op != "detect" {
		t.Fatalf("want *scc.Error with Op=detect, got %v", err)
	}
	// Cancellation fired during the first trim round; the engine must
	// stop at the next round boundary, not run the remaining phases.
	// A full Method2 run on this graph takes far longer than a single
	// trim round, so a generous absolute bound still catches a run
	// that ignored the cancel.
	if elapsed > 10*time.Second {
		t.Fatalf("canceled run took %v", elapsed)
	}
	for _, typ := range []scc.EventType{scc.EventWCCRound, scc.EventTaskDone} {
		if _, late := obs.seen.Load(typ); late {
			t.Errorf("event %v observed after cancellation during Par-Trim", typ)
		}
	}
	waitGoroutines(t, base)
}

// TestDetectContextCancelRecursivePhase cancels on the first completed
// task of the recursive phase, exercising the work-queue Cancel path.
// Baseline sends every node through the recursive phase, so TaskDone
// events are guaranteed (Method2's earlier phases can consume the
// whole graph before phase 2).
func TestDetectContextCancelRecursivePhase(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(14, 8, 3))
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelOn{typ: scc.EventTaskDone, cancel: cancel}

	res, err := scc.DetectContext(ctx, g, scc.Options{Algorithm: scc.Baseline, Seed: 3, Observer: obs})
	if res != nil || !errors.Is(err, scc.ErrCanceled) {
		t.Fatalf("want canceled error and nil result, got res=%v err=%v", res, err)
	}
	waitGoroutines(t, base)
}

// TestDetectContextDeadline checks that an expired deadline surfaces
// as both ErrCanceled and context.DeadlineExceeded.
func TestDetectContextDeadline(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 8, 2))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := scc.DetectContext(ctx, g, scc.Options{Algorithm: scc.Method2})
	if res != nil {
		t.Fatal("expired-deadline run returned a result")
	}
	if !errors.Is(err, scc.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
}

// TestDetectContextAlreadyCanceled checks the entry fast path.
func TestDetectContextAlreadyCanceled(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []scc.Algorithm{scc.Method2, scc.Tarjan, scc.OBF} {
		res, err := scc.DetectContext(ctx, g, scc.Options{Algorithm: alg})
		if res != nil || !errors.Is(err, scc.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: want canceled error, got res=%v err=%v", alg, res, err)
		}
	}
}

// recorder collects every event in arrival order.
type recorder struct {
	mu     sync.Mutex
	events []scc.Event
}

func (r *recorder) Observe(ev scc.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// TestObserverEventOrdering checks that a Method2 run emits the phase
// sequence of Algorithm 9 — Par-Trim, Par-FWBW, Par-Trim′, Par-WCC,
// Recur-FWBW — with properly nested PhaseStart/PhaseEnd pairs and
// kernel events attributed to the right phase.
func TestObserverEventOrdering(t *testing.T) {
	// The power-law tail guarantees small SCCs survive into the
	// recursive phase, so TaskDone/QueueSample events are exercised
	// (a bare R-MAT core can be fully consumed by trimming and the
	// giant-SCC peel).
	g := gen.WithTail(gen.RMAT(gen.DefaultRMAT(13, 8, 5)), gen.TailConfig{
		Components:  512,
		Alpha:       2.2,
		MaxSize:     64,
		AttachEdges: 2,
		ChainProb:   0.4,
		Seed:        5,
	})
	rec := &recorder{}
	res, err := scc.DetectContext(context.Background(), g,
		scc.Options{Algorithm: scc.Method2, Seed: 5, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.NumSCCs == 0 {
		t.Fatal("empty result")
	}

	want := []scc.Phase{scc.PhaseParTrim, scc.PhaseParFWBW, scc.PhaseParTrimPost, scc.PhaseParWCC, scc.PhaseRecurFWBW}
	var starts, ends []scc.Phase
	open := -1 // phase currently between start and end, -1 for none
	for i, ev := range rec.events {
		switch ev.Type {
		case scc.EventPhaseStart:
			if open != -1 {
				t.Fatalf("event %d: phase %v started while %v still open", i, scc.Phase(ev.Phase), scc.Phase(open))
			}
			open = ev.Phase
			starts = append(starts, scc.Phase(ev.Phase))
		case scc.EventPhaseEnd:
			if open != ev.Phase {
				t.Fatalf("event %d: phase %v ended but %v was open", i, scc.Phase(ev.Phase), scc.Phase(open))
			}
			open = -1
			ends = append(ends, scc.Phase(ev.Phase))
		case scc.EventRunMetrics:
			// The run-summary event fires once after the final phase has
			// closed; it carries no phase attribution of its own.
			if open != -1 {
				t.Fatalf("event %d: RunMetrics emitted inside open phase %v", i, scc.Phase(open))
			}
			if i != len(rec.events)-1 {
				t.Fatalf("event %d: RunMetrics is not the final event (%d total)", i, len(rec.events))
			}
		default:
			if open != ev.Phase {
				t.Fatalf("event %d: %v stamped with phase %v outside that phase (open: %v)",
					i, ev.Type, scc.Phase(ev.Phase), scc.Phase(open))
			}
		}
		// Kernel events must match the phase's kernel.
		switch ev.Type {
		case scc.EventTrimRound:
			if p := scc.Phase(ev.Phase); p != scc.PhaseParTrim && p != scc.PhaseParTrimPost {
				t.Fatalf("trim round in phase %v", p)
			}
		case scc.EventBFSLevel:
			if p := scc.Phase(ev.Phase); p != scc.PhaseParFWBW {
				t.Fatalf("BFS level in phase %v", p)
			}
		case scc.EventWCCRound:
			if p := scc.Phase(ev.Phase); p != scc.PhaseParWCC {
				t.Fatalf("WCC round in phase %v", p)
			}
		case scc.EventTaskDone, scc.EventQueueSample:
			if p := scc.Phase(ev.Phase); p != scc.PhaseRecurFWBW {
				t.Fatalf("%v in phase %v", ev.Type, p)
			}
		}
	}
	if len(starts) != len(want) {
		t.Fatalf("phase starts %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] || ends[i] != want[i] {
			t.Fatalf("phase sequence starts=%v ends=%v, want %v", starts, ends, want)
		}
	}

	// Round events carry 1-based increasing round numbers, and the
	// recursive phase reports every SCC it found via TaskDone.
	var tasksSCCs int64
	for _, ev := range rec.events {
		if ev.Type == scc.EventTaskDone {
			tasksSCCs++
		}
	}
	if tasksSCCs == 0 {
		t.Fatal("no TaskDone events: the recursive phase never ran")
	}
	if tasksSCCs != res.Phases[scc.PhaseRecurFWBW].SCCs {
		t.Fatalf("TaskDone events %d != recursive-phase SCCs %d",
			tasksSCCs, res.Phases[scc.PhaseRecurFWBW].SCCs)
	}
}

// TestDetectTypedErrors covers the validation error taxonomy.
func TestDetectTypedErrors(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 4, 1))

	if _, err := scc.Detect(nil, scc.Options{}); !errors.Is(err, scc.ErrNilGraph) {
		t.Fatalf("nil graph: got %v", err)
	}

	cases := []struct {
		field string
		opts  scc.Options
	}{
		{"K", scc.Options{K: -1}},
		{"GiantThreshold", scc.Options{GiantThreshold: 1.5}},
		{"GiantThreshold", scc.Options{GiantThreshold: -0.5}},
		{"MaxPhase1Trials", scc.Options{MaxPhase1Trials: -1}},
		{"TraceTasks", scc.Options{TraceTasks: -2}},
		{"PivotSample", scc.Options{PivotSample: -1}},
		{"Algorithm", scc.Options{Algorithm: scc.Algorithm(99)}},
	}
	for _, tc := range cases {
		_, err := scc.Detect(g, tc.opts)
		if !errors.Is(err, scc.ErrInvalidOption) {
			t.Fatalf("%s: errors.Is(err, ErrInvalidOption) = false; err = %v", tc.field, err)
		}
		var oe *scc.OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: errors.As(*OptionError) = false; err = %v", tc.field, err)
		}
		if oe.Field != tc.field {
			t.Fatalf("OptionError.Field = %q, want %q (err: %v)", oe.Field, tc.field, err)
		}
		if errors.Is(err, scc.ErrCanceled) || errors.Is(err, scc.ErrNilGraph) {
			t.Fatalf("%s: error matches unrelated sentinels: %v", tc.field, err)
		}
	}
}

// TestDetectBackgroundEquivalence checks that Detect and DetectContext
// with a background context produce the same partition.
func TestDetectBackgroundEquivalence(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 4))
	a, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := scc.DetectContext(context.Background(), g, scc.Options{Algorithm: scc.Method2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !scc.SamePartition(a.Comp, b.Comp) {
		t.Fatal("Detect and DetectContext disagree")
	}
}

// TestResultRenumberComponentOf covers the Result accessors.
func TestResultRenumberComponentOf(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 9))
	res, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dense, k := res.Renumber()
	if int64(k) != res.NumSCCs {
		t.Fatalf("Renumber k = %d, want NumSCCs = %d", k, res.NumSCCs)
	}
	if len(dense) != g.NumNodes() {
		t.Fatalf("Renumber labeling has %d entries for %d nodes", len(dense), g.NumNodes())
	}
	for v := 0; v < g.NumNodes(); v++ {
		if res.ComponentOf(int32(v)) != res.Comp[v] {
			t.Fatalf("ComponentOf(%d) = %d, want %d", v, res.ComponentOf(int32(v)), res.Comp[v])
		}
	}
	// Dense ids must induce the same partition as the representatives.
	if !scc.SamePartition(dense, res.Comp) {
		t.Fatal("Renumber changed the partition")
	}
}

// TestObserverFunc checks the function adapter.
func TestObserverFunc(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 2))
	var mu sync.Mutex
	count := 0
	obs := scc.ObserverFunc(func(ev scc.Event) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if _, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("ObserverFunc received no events")
	}
}
