// Package experiments contains the evaluation harness that regenerates
// every table and figure of the paper: the dataset suite (synthetic
// analogs of Table 1's real-world graphs), experiment runners for
// Table 1 and Figures 2 and 6-9, the §3.3 execution logs, and the
// ablation studies behind the §3.4 and §4.1 claims.
package experiments

import (
	"fmt"

	"repro/gen"
	"repro/graph"
)

// PaperNumbers records what the paper's Table 1 reports for the real
// dataset, for side-by-side shape comparison.
type PaperNumbers struct {
	Nodes, Edges, LargestSCC int64
	Diameter                 int
}

// GiantFraction is the paper graph's largest-SCC share of all nodes.
func (p PaperNumbers) GiantFraction() float64 {
	return float64(p.LargestSCC) / float64(p.Nodes)
}

// Dataset is one synthetic analog of a Table 1 graph.
type Dataset struct {
	// Name is the paper's dataset name (lowercased).
	Name string
	// Description explains the generator substitution.
	Description string
	// Star marks graphs the paper derives from undirected sources by
	// random edge orientation (Table 1's “*”).
	Star bool
	// SmallWorld is false for the non-small-world counterexamples
	// (ca-road).
	SmallWorld bool
	// Paper is the real graph's published numbers.
	Paper PaperNumbers
	// Build generates the analog at the given scale factor (1.0 is the
	// default benchmark size; smaller values shrink node counts
	// proportionally for quick runs).
	Build func(scale float64) *graph.Graph
}

// scaled maps a base power-of-two scale through the scale factor.
func scaled(base int, scale float64) int {
	n := base
	for scale <= 0.5 && n > 8 {
		n--
		scale *= 2
	}
	return n
}

// Suite returns the nine dataset analogs in the paper's Table 1 order.
//
// Each generator is tuned toward the structural targets the algorithms
// are sensitive to: the giant SCC's share of the graph, the power-law
// tail of small SCCs, acyclicity (patents), and the diameter class
// (ca-road). Absolute sizes are scaled to laptop range (~100-500 k
// nodes at scale 1.0 versus the paper's 2-125 M).
func Suite() []Dataset {
	return []Dataset{
		{
			Name:        "livej",
			Description: "R-MAT analog of LiveJournal (web/social links)",
			SmallWorld:  true,
			Paper:       PaperNumbers{Nodes: 4_848_571, Edges: 68_993_773, LargestSCC: 3_828_682, Diameter: 18},
			Build: func(s float64) *graph.Graph {
				cfg := gen.DefaultRMAT(scaled(18, s), 14, 101)
				// Mild skew: LiveJournal's giant SCC covers ~79% of the
				// graph, far above what Graph500-default R-MAT skew
				// yields.
				cfg.A, cfg.B, cfg.C, cfg.D = 0.42, 0.23, 0.23, 0.12
				return withStandardTail(gen.RMAT(cfg), 16, 101)
			},
		},
		{
			Name:        "flickr",
			Description: "R-MAT analog of the Flickr user graph (heavy mid-size SCC tail)",
			SmallWorld:  true,
			Paper:       PaperNumbers{Nodes: 2_302_925, Edges: 33_140_018, LargestSCC: 1_605_184, Diameter: 7},
			Build: func(s float64) *graph.Graph {
				cfg := gen.DefaultRMAT(scaled(17, s), 14, 102)
				cfg.A, cfg.B, cfg.C, cfg.D = 0.45, 0.18, 0.18, 0.19
				core := gen.RMAT(cfg)
				// Flickr shows the paper's heaviest recursive-phase
				// share (Figure 8): give it the largest mid-size tail.
				return gen.WithTail(core, gen.TailConfig{
					Components:  core.NumNodes() / 8,
					Alpha:       2.0,
					MaxSize:     128,
					AttachEdges: 2,
					ChainProb:   0.6,
					Seed:        102,
				})
			},
		},
		{
			Name:        "baidu",
			Description: "sparser, more asymmetric R-MAT analog of Baidu encyclopedia links",
			SmallWorld:  true,
			Paper:       PaperNumbers{Nodes: 2_141_300, Edges: 17_794_839, LargestSCC: 609_905, Diameter: 5},
			Build: func(s float64) *graph.Graph {
				cfg := gen.DefaultRMAT(scaled(17, s), 5, 103)
				cfg.A, cfg.B, cfg.C, cfg.D = 0.60, 0.22, 0.13, 0.05
				return withStandardTail(gen.RMAT(cfg), 16, 103)
			},
		},
		{
			Name:        "wiki",
			Description: "large sparse R-MAT analog of English Wikipedia links",
			SmallWorld:  true,
			Paper:       PaperNumbers{Nodes: 15_172_740, Edges: 131_166_252, LargestSCC: 4_736_008, Diameter: 6},
			Build: func(s float64) *graph.Graph {
				cfg := gen.DefaultRMAT(scaled(18, s), 6, 104)
				cfg.A, cfg.B, cfg.C, cfg.D = 0.58, 0.21, 0.14, 0.07
				return withStandardTail(gen.RMAT(cfg), 16, 104)
			},
		},
		{
			Name:        "friend",
			Description: "randomly oriented undirected R-MAT analog of Friendster",
			Star:        true,
			SmallWorld:  true,
			Paper:       PaperNumbers{Nodes: 124_836_180, Edges: 1_806_067_135, LargestSCC: 46_941_703, Diameter: 25},
			Build: func(s float64) *graph.Graph {
				core := gen.RMATUndirected(gen.DefaultRMAT(scaled(18, s), 7, 105))
				return withStandardTail(core, 24, 105)
			},
		},
		{
			Name:        "twitter",
			Description: "dense R-MAT analog of the Twitter follower graph",
			SmallWorld:  true,
			Paper:       PaperNumbers{Nodes: 41_652_230, Edges: 1_468_365_182, LargestSCC: 33_479_734, Diameter: 6},
			Build: func(s float64) *graph.Graph {
				cfg := gen.DefaultRMAT(scaled(17, s), 24, 106)
				cfg.A, cfg.B, cfg.C, cfg.D = 0.50, 0.20, 0.20, 0.10
				return withStandardTail(gen.RMAT(cfg), 16, 106)
			},
		},
		{
			Name:        "orkut",
			Description: "randomly oriented undirected R-MAT analog of Orkut (dense, near-total giant SCC)",
			Star:        true,
			SmallWorld:  true,
			Paper:       PaperNumbers{Nodes: 3_072_627, Edges: 11_718_583, LargestSCC: 2_963_298, Diameter: 8},
			Build: func(s float64) *graph.Graph {
				cfg := gen.DefaultRMAT(scaled(17, s), 16, 107)
				cfg.A, cfg.B, cfg.C, cfg.D = 0.35, 0.25, 0.25, 0.15
				return gen.RMATUndirected(cfg)
			},
		},
		{
			Name:        "patents",
			Description: "citation DAG analog of the US patent graph (acyclic: all SCCs trivial)",
			SmallWorld:  true,
			Paper:       PaperNumbers{Nodes: 3_774_768, Edges: 16_518_948, LargestSCC: 1, Diameter: 22},
			Build: func(s float64) *graph.Graph {
				n := 1 << scaled(18, s)
				return gen.CitationDAG(n, 5, 108)
			},
		},
		{
			Name:        "ca-road",
			Description: "randomly oriented 2-D lattice analog of the California road network (planar, high diameter)",
			Star:        true,
			SmallWorld:  false,
			Paper:       PaperNumbers{Nodes: 1_965_206, Edges: 5_533_214, LargestSCC: 1_168_580, Diameter: 850},
			Build: func(s float64) *graph.Graph {
				side := 1 << (scaled(18, s) / 2)
				return gen.RoadLattice(gen.RoadLatticeConfig{
					Rows: side, Cols: side, TwoWayProb: 0.05, Seed: 109,
				})
			},
		},
	}
}

// withStandardTail attaches the canonical power-law SCC tail (Figure
// 3(a)'s small components around the giant SCC) to a core graph: one
// tail component per `div` core nodes, power-law sizes with exponent
// 2.2 truncated at 64, two attachment edges each, 40% chained to other
// tail components.
func withStandardTail(core *graph.Graph, div int, seed int64) *graph.Graph {
	return gen.WithTail(core, gen.TailConfig{
		Components:  core.NumNodes() / div,
		Alpha:       2.2,
		MaxSize:     64,
		AttachEdges: 2,
		ChainProb:   0.4,
		Seed:        seed,
	})
}

// Extras returns the high-diameter stress datasets that are findable
// by name (sccbench -data, BenchmarkKernels) but excluded
// from Names() — they are not Table 1 analogs, so the paper's figures
// and the default bench sweep never include them.
func Extras() []Dataset {
	return []Dataset{
		{
			Name:        "deep-chain",
			Description: "necklace of 256-node cycles chained head-to-tail (diameter ~n, untrimmable)",
			SmallWorld:  false,
			Build: func(s float64) *graph.Graph {
				n := 1 << scaled(17, s)
				const m = 256
				cycles := n / m
				if cycles < 2 {
					cycles = 2
				}
				b := graph.NewBuilder(cycles * m)
				for c := 0; c < cycles; c++ {
					base := c * m
					for i := 0; i < m; i++ {
						b.AddEdge(graph.NodeID(base+i), graph.NodeID(base+(i+1)%m))
					}
					if c+1 < cycles {
						b.AddEdge(graph.NodeID(base), graph.NodeID(base+m))
					}
				}
				return b.Build()
			},
		},
		{
			Name:        "zig-zag",
			Description: "two opposed chains closed into one giant ring with sparse one-way rungs (single SCC, diameter ~n)",
			SmallWorld:  false,
			Build: func(s float64) *graph.Graph {
				n := 1 << scaled(16, s)
				b := graph.NewBuilder(2 * n)
				// Top chain runs forward, bottom chain runs backward; the
				// two joins close the ring, so all 2n nodes are one SCC.
				for i := 0; i < n-1; i++ {
					b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
					b.AddEdge(graph.NodeID(n+i+1), graph.NodeID(n+i))
				}
				b.AddEdge(graph.NodeID(n-1), graph.NodeID(2*n-1))
				b.AddEdge(graph.NodeID(n), 0)
				// Sparse one-way rungs zig-zag across the strip: shortcuts
				// forward along the ring that never reduce the backward
				// distance, keeping the effective diameter Θ(n).
				for i := 16; i < n; i += 16 {
					b.AddEdge(graph.NodeID(i), graph.NodeID(n+i))
				}
				return b.Build()
			},
		},
	}
}

// Find returns the named dataset from the suite or the extras.
func Find(name string) (Dataset, error) {
	for _, d := range Suite() {
		if d.Name == name {
			return d, nil
		}
	}
	for _, d := range Extras() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("experiments: unknown dataset %q", name)
}

// Names lists the suite's dataset names in order.
func Names() []string {
	suite := Suite()
	names := make([]string, len(suite))
	for i, d := range suite {
		names[i] = d.Name
	}
	return names
}
