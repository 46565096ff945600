package core

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/graph"
	"repro/internal/parallel"
	"repro/internal/seq"
)

// ErrNilBatchGraph marks a nil entry in a RunBatch graph slice; it is
// recorded per-entry in BatchResult.Err, never returned as the batch's
// overall error.
var ErrNilBatchGraph = errors.New("core: nil graph in batch")

// BatchResult is one graph's outcome from Engine.RunBatch.
type BatchResult struct {
	// Comp maps each node of the graph to a dense component id in
	// [0, NumSCCs) — not a representative node id like Run's Comp;
	// batch entries are computed by sequential Tarjan, whose ids are
	// dense by construction. Partition-level comparisons (SamePartition)
	// are unaffected.
	Comp []int32
	// NumSCCs is the number of strongly connected components.
	NumSCCs int64
	// Err is the per-graph failure: ErrNilBatchGraph for a nil entry,
	// or the context error for graphs skipped after cancellation.
	Err error
}

// RunBatch decomposes every graph in the slice, distributing graphs
// across the engine's pinned worker gang in dynamically claimed chunks
// of K (the engine's task batch size): one gang for the whole batch,
// per-graph results. Each graph is processed by a single worker with
// sequential Tarjan — for a stream of small graphs, cross-graph
// parallelism dominates and per-graph parallel detection would only
// add barrier overhead.
//
// Cancellation is cooperative at graph granularity: after ctx fires,
// unstarted graphs get Err = ctx.Err() and RunBatch returns ctx.Err()
// as the batch error alongside the partial results. A worker panic
// (a malformed graph) tears the batch down and returns the
// *parallel.WorkerPanic. Unlike Run, RunBatch's results are
// caller-owned — they do not alias engine state and survive
// subsequent runs.
func (en *Engine) RunBatch(ctx context.Context, graphs []*graph.Graph) (res []BatchResult, err error) {
	if en.Dead() {
		return nil, ErrEngineUnusable
	}
	out := make([]BatchResult, len(graphs))
	if len(graphs) == 0 {
		return out, ctx.Err()
	}
	// A budget-degraded Run may have left the arena at fewer workers.
	en.pin(en.opt)
	defer func() {
		if v := recover(); v != nil {
			wp, ok := v.(*parallel.WorkerPanic)
			if !ok {
				panic(v)
			}
			res, err = nil, wp
		}
	}()
	var canceled atomic.Bool
	done := ctx.Done()
	en.ar.ForDynamic(len(graphs), en.opt.K, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if canceled.Load() {
				out[i].Err = ctx.Err()
				continue
			}
			if done != nil {
				select {
				case <-done:
					canceled.Store(true)
					out[i].Err = ctx.Err()
					continue
				default:
				}
			}
			g := graphs[i]
			if g == nil {
				out[i].Err = ErrNilBatchGraph
				continue
			}
			comp, n := seq.Tarjan(g)
			out[i] = BatchResult{Comp: comp, NumSCCs: int64(n)}
		}
	})
	if canceled.Load() {
		return out, ctx.Err()
	}
	return out, nil
}
