// Package repro is a Go reproduction of Hong, Rodia & Olukotun, "On
// Fast Parallel Detection of Strongly Connected Components (SCC) in
// Small-World Graphs" (SC '13).
//
// The root package holds only the repository-level benchmark harness
// (bench_test.go), with one benchmark per table and figure of the
// paper. The library lives in the subpackages:
//
//	graph       CSR directed graphs, I/O, statistics
//	gen         synthetic graph generators (R-MAT, lattices, DAGs, ...)
//	scc         SCC detection: Tarjan, Kosaraju, Baseline, Method1, Method2
//	schedsim    machine model + list-scheduling simulator for thread sweeps
//	experiments dataset suite and per-figure experiment runners
//
// The primary entry point is scc.DetectContext, which honors
// cancellation and deadlines and streams progress events:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	res, err := scc.DetectContext(ctx, g, scc.Options{})
//
// See README.md for a tour and DESIGN.md for the system inventory.
package repro
