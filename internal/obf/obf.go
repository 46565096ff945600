// Package obf implements the recursive OBF (OWCTY-Backward-Forward)
// SCC decomposition of Barnat, Chaloupka & van de Pol, the alternative
// parallel algorithm the paper's related-work section discusses ([9]):
// OBF slices a rooted vertex set into independently processable chunks
// and was designed to expose more parallelism than plain FW-BW. The
// paper notes it "did not give a large performance improvement ... when
// applied to real-world graphs with few large-sized SCCs"; this
// implementation exists to reproduce that comparison.
//
// One OBF round on a rooted set V (V = forward closure of its roots):
//
//	O — OWCTY elimination: repeatedly remove vertices with in-degree 0
//	    within V; each removed vertex is a trivial SCC. The surviving
//	    vertices that lost an incoming edge form the stalled frontier.
//	B — the backward closure (within V) of the stalled frontier is a
//	    union of complete SCCs; it is cut off and decomposed
//	    independently (here: by pivot FW-BW, queued as a task).
//	F — the remainder is rooted at B's surviving successors; continue.
//
// Unrooted input is bootstrapped by taking forward closures of
// arbitrary vertices until the graph is exhausted.
package obf

import (
	"sync/atomic"

	"repro/graph"
	"repro/internal/parallel"
	"repro/internal/worklist"
)

// Removed marks nodes whose SCC has been identified.
const Removed int32 = -1

// Options configures a Run.
type Options struct {
	// Workers is the number of parallel workers; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// K is the work-queue batch size; 0 selects 1.
	K int
	// Seed drives pivot selection inside B-set decomposition.
	Seed int64
}

// Result is the decomposition plus instrumentation.
type Result struct {
	// Comp maps each node to its SCC representative node id.
	Comp []int32
	// NumSCCs is the number of components.
	NumSCCs int64
	// Slices counts OBF rounds executed; Tasks counts queued tasks.
	Slices int64
	Tasks  int64
	// Queue carries the work-queue statistics for comparison with the
	// FW-BW engine's.
	Queue worklist.Stats
}

type taskKind uint8

const (
	taskOBF  taskKind = iota // run OBF rounds on a rooted set
	taskFWBW                 // decompose an SCC-closed set by FW-BW
)

// task carries an explicit node list (hybrid representation) plus the
// roots for OBF tasks.
type task struct {
	kind  taskKind
	c     int32
	nodes []graph.NodeID
	roots []graph.NodeID
}

type engine struct {
	g         *graph.Graph
	color     []int32
	comp      []int32
	nextColor atomic.Int32
	sccs      atomic.Int64
	slices    atomic.Int64
	tasks     atomic.Int64
	rng       atomic.Uint64
}

func (e *engine) newColor() int32 { return e.nextColor.Add(1) }

func (e *engine) rand64() uint64 {
	z := e.rng.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = parallel.DefaultWorkers()
	}
	if o.K <= 0 {
		o.K = 1
	}
	return o
}

// Run decomposes g with recursive OBF. The work queue runs on a gang
// of opt.Workers goroutines that Run starts and closes.
func Run(g *graph.Graph, opt Options) *Result {
	opt = opt.withDefaults()
	n := g.NumNodes()
	e := &engine{g: g, color: make([]int32, n), comp: make([]int32, n)}
	for i := range e.comp {
		e.comp[i] = -1
	}
	e.rng.Store(uint64(opt.Seed)*0x9e3779b97f4a7c15 + 7)

	q := worklist.New[task](opt.Workers, opt.K)
	// Bootstrap: forward closures of arbitrary remaining vertices until
	// every node is covered; each closure is a rooted OBF task.
	covered := make([]bool, n)
	for v := 0; v < n; v++ {
		if covered[v] {
			continue
		}
		c := e.newColor()
		members := e.forwardClosure(graph.NodeID(v), covered, c)
		q.Seed([]task{{kind: taskOBF, c: c, nodes: members, roots: []graph.NodeID{graph.NodeID(v)}}})
	}
	gang := parallel.NewGang(opt.Workers)
	defer gang.Close()
	q.Run(gang, func(w int, t task) {
		e.tasks.Add(1)
		switch t.kind {
		case taskOBF:
			e.runOBF(t, q, w)
		case taskFWBW:
			e.runFWBW(t, q, w)
		}
	})
	res := &Result{
		Comp:    e.comp,
		NumSCCs: e.sccs.Load(),
		Slices:  e.slices.Load(),
		Tasks:   e.tasks.Load(),
		Queue:   q.Stats(),
	}
	return res
}

// forwardClosure colors the forward closure of v (over uncovered
// nodes) with c and returns the member list (bootstrap only; single
// threaded).
func (e *engine) forwardClosure(v graph.NodeID, covered []bool, c int32) []graph.NodeID {
	covered[v] = true
	e.color[v] = c
	members := []graph.NodeID{v}
	stack := []graph.NodeID{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range e.g.Out(x) {
			if !covered[t] {
				covered[t] = true
				e.color[t] = c
				members = append(members, t)
				stack = append(stack, t)
			}
		}
	}
	return members
}

// runOBF executes OBF rounds on a rooted set until it is exhausted,
// queueing each B slice as an independent FW-BW task.
func (e *engine) runOBF(t task, q *worklist.Queue[task], worker int) {
	c := t.c
	nodes := t.nodes
	for len(nodes) > 0 {
		e.slices.Add(1)
		// O: OWCTY elimination of leading trivial SCCs. In-degrees are
		// computed within the set; the set is exclusively owned by this
		// task, so plain arithmetic suffices.
		indeg := make(map[graph.NodeID]int32, len(nodes))
		for _, v := range nodes {
			for _, k := range e.g.Out(v) {
				if k != v && atomic.LoadInt32(&e.color[k]) == c {
					indeg[k]++
				}
			}
		}
		var queue []graph.NodeID
		for _, v := range nodes {
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
		stalled := make(map[graph.NodeID]bool)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			e.comp[v] = int32(v)
			atomic.StoreInt32(&e.color[v], Removed)
			e.sccs.Add(1)
			delete(stalled, v)
			for _, k := range e.g.Out(v) {
				if k == v || atomic.LoadInt32(&e.color[k]) != c {
					continue
				}
				indeg[k]--
				if indeg[k] == 0 {
					queue = append(queue, k)
				} else {
					stalled[k] = true
				}
			}
		}
		// Seeds of the B step: the stalled frontier, or (when the set
		// starts with a cycle at its roots) the surviving roots.
		seeds := make([]graph.NodeID, 0, len(stalled))
		for v := range stalled {
			seeds = append(seeds, v)
		}
		if len(seeds) == 0 {
			for _, r := range t.roots {
				if atomic.LoadInt32(&e.color[r]) == c {
					seeds = append(seeds, r)
				}
			}
			if len(seeds) == 0 {
				// Everything was eliminated or nothing remains rooted:
				// pick any survivor to stay safe (disconnected leftovers
				// cannot occur for rooted sets, but guard anyway).
				for _, v := range nodes {
					if atomic.LoadInt32(&e.color[v]) == c {
						seeds = append(seeds, v)
						break
					}
				}
				if len(seeds) == 0 {
					return
				}
			}
		}
		// B: backward closure of the seeds within the set — SCC-closed.
		cb := e.newColor()
		bset := make([]graph.NodeID, 0, len(seeds))
		for _, s := range seeds {
			atomic.StoreInt32(&e.color[s], cb)
			bset = append(bset, s)
		}
		stack := append([]graph.NodeID(nil), seeds...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, k := range e.g.In(v) {
				if atomic.LoadInt32(&e.color[k]) == c {
					atomic.StoreInt32(&e.color[k], cb)
					bset = append(bset, k)
					stack = append(stack, k)
				}
			}
		}
		// Queue B for independent decomposition.
		q.Push(worker, task{kind: taskFWBW, c: cb, nodes: bset})

		// F: the remainder is rooted at B's successors; filter the node
		// list and compute the new roots.
		remain := nodes[:0]
		for _, v := range nodes {
			if atomic.LoadInt32(&e.color[v]) == c {
				remain = append(remain, v)
			}
		}
		var roots []graph.NodeID
		rootSeen := make(map[graph.NodeID]bool)
		for _, v := range bset {
			for _, k := range e.g.Out(v) {
				if atomic.LoadInt32(&e.color[k]) == c && !rootSeen[k] {
					rootSeen[k] = true
					roots = append(roots, k)
				}
			}
		}
		nodes = remain
		t.roots = roots
	}
}

// runFWBW decomposes an SCC-closed set with pivot FW-BW, pushing the
// three residual partitions back (FW and BW residues are SCC-closed
// but not rooted, so they recurse through FW-BW; this mirrors how OBFR
// finishes its slices).
func (e *engine) runFWBW(t task, q *worklist.Queue[task], worker int) {
	nodes := t.nodes
	if len(nodes) == 0 {
		return
	}
	c := t.c
	pivot := nodes[int(e.rand64()%uint64(len(nodes)))]
	cfw, cbw := e.newColor(), e.newColor()

	fwList := make([]graph.NodeID, 0, 16)
	stack := []graph.NodeID{pivot}
	atomic.StoreInt32(&e.color[pivot], cfw)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range e.g.Out(v) {
			if atomic.LoadInt32(&e.color[k]) == c {
				atomic.StoreInt32(&e.color[k], cfw)
				fwList = append(fwList, k)
				stack = append(stack, k)
			}
		}
	}
	bwList := make([]graph.NodeID, 0, 16)
	e.comp[pivot] = int32(pivot)
	atomic.StoreInt32(&e.color[pivot], Removed)
	e.sccs.Add(1)
	stack = append(stack[:0], pivot)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range e.g.In(v) {
			switch atomic.LoadInt32(&e.color[k]) {
			case c:
				atomic.StoreInt32(&e.color[k], cbw)
				bwList = append(bwList, k)
				stack = append(stack, k)
			case cfw:
				e.comp[k] = int32(pivot)
				atomic.StoreInt32(&e.color[k], Removed)
				stack = append(stack, k)
			}
		}
	}
	fwRemain := fwList[:0]
	for _, v := range fwList {
		if atomic.LoadInt32(&e.color[v]) == cfw {
			fwRemain = append(fwRemain, v)
		}
	}
	remain := t.nodes[:0]
	for _, v := range t.nodes {
		if atomic.LoadInt32(&e.color[v]) == c {
			remain = append(remain, v)
		}
	}
	if len(fwRemain) > 0 {
		q.Push(worker, task{kind: taskFWBW, c: cfw, nodes: fwRemain})
	}
	if len(bwList) > 0 {
		q.Push(worker, task{kind: taskFWBW, c: cbw, nodes: bwList})
	}
	if len(remain) > 0 {
		q.Push(worker, task{kind: taskFWBW, c: c, nodes: remain})
	}
}
