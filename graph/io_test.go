package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func randomGraph(t *testing.T, seed int64, n, m int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		ao, bo := a.Out(NodeID(v)), b.Out(NodeID(v))
		ai, bi := a.In(NodeID(v)), b.In(NodeID(v))
		if len(ao) != len(bo) || len(ai) != len(bi) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
		for i := range ai {
			if ai[i] != bi[i] {
				return false
			}
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{0, 0}, {1, 0}, {5, 10}, {300, 4000}} {
		g := randomGraph(t, int64(tc.n+tc.m), max(tc.n, 1), tc.m)
		if tc.n == 0 {
			g = NewBuilder(0).Build()
		}
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		g2, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if !graphsEqual(g, g2) {
			t.Fatalf("round trip mismatch for n=%d m=%d", tc.n, tc.m)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := randomGraph(t, 3, 100, 800)
	path := filepath.Join(t.TempDir(), "g.sccg")
	if err := g.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("file round trip mismatch")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"XXXX",
		"SCCGgarbage",
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Fatalf("Load(%q) succeeded, want error", c)
		}
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	g := randomGraph(t, 1, 4, 6)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // version byte
	if _, err := Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("Load accepted bad version")
	}
}

func TestLoadRejectsCorruptIndex(t *testing.T) {
	g := randomGraph(t, 2, 4, 6)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the first outIdx entry (offset 4+4+8+8 = 24) to a huge value.
	raw[24+7] = 0x7f
	if _, err := Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("Load accepted corrupt index")
	}
}

func TestLoadRejectsUnsortedAdjacency(t *testing.T) {
	g := FromEdges(3, []Edge{{From: 0, To: 1}, {From: 0, To: 2}})
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Node 0's out-list [1 2] starts after the 24-byte header and the
	// four 8-byte outIdx entries; swap its two 4-byte entries.
	const adj = 24 + 4*8
	a, b := append([]byte(nil), raw[adj:adj+4]...), append([]byte(nil), raw[adj+4:adj+8]...)
	copy(raw[adj:], b)
	copy(raw[adj+4:], a)
	if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Load of an unsorted adjacency list: got %v, want ErrMalformed", err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(t, 11, 60, 300)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// g2 may have fewer nodes if trailing nodes are isolated; compare
	// edges through the larger node count.
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d != %d", g2.NumEdges(), g.NumEdges())
	}
	for v := 0; v < g2.NumNodes(); v++ {
		for _, tgt := range g2.Out(NodeID(v)) {
			if !g.HasEdge(NodeID(v), tgt) {
				t.Fatalf("spurious edge %d→%d", v, tgt)
			}
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% another\n\n0 1\n1 2 extra-ignored\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("missing edge 1→2")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 -1\n", "-2 0\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadEdgeList(%q) succeeded, want error", in)
		}
	}
}
