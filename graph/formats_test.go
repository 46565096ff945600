package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
% a comment
3 3 4
1 2
2 3
3 1
1 1
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 0) || !g.HasEdge(0, 0) {
		t.Fatal("edges wrong")
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
2 1 3.5
1 1 1.0
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Off-diagonal symmetric entry expands to both directions; the
	// diagonal stays single.
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) || !g.HasEdge(0, 0) {
		t.Fatal("symmetric expansion wrong")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("m=%d, want 3", g.NumEdges())
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n", // non-square
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n", // out of range
		"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n", // missing entries
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\nx y\n", // garbage entry
		"not a header\n",
	}
	for _, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := randomGraph(t, 21, 40, 300)
	var buf bytes.Buffer
	if err := g.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("MatrixMarket round trip mismatch")
	}
}

func TestReadMETIS(t *testing.T) {
	// Triangle 1-2-3 (METIS is 1-based, undirected: both directions
	// listed).
	in := `% comment
3 3
2 3
1 3
1 2
`
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 6 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 0) {
		t.Fatal("edges wrong")
	}
}

func TestReadMETISErrors(t *testing.T) {
	cases := []string{
		"",
		"3\n",
		"2 1 011\n2\n1\n", // weighted format
		"2 1\n3\n1\n",     // neighbor out of range
		"3 2\n2\n1\n",     // missing node line
		"2 1\nx\n1\n",     // garbage
		"2 5\n2\n1\n",     // edge count mismatch
	}
	for _, in := range cases {
		if _, err := ReadMETIS(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}

func TestMETISRoundTrip(t *testing.T) {
	// Build a symmetric graph without self-loops.
	rng := rand.New(rand.NewSource(31))
	b := NewBuilder(30)
	for i := 0; i < 120; i++ {
		u, v := NodeID(rng.Intn(30)), NodeID(rng.Intn(30))
		if u != v {
			b.AddEdge(u, v)
			b.AddEdge(v, u)
		}
	}
	sym := b.Build()
	var buf bytes.Buffer
	if err := sym.WriteMETIS(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(sym, g2) {
		t.Fatal("METIS round trip mismatch")
	}
}

func TestWriteMETISRejectsAsymmetric(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}})
	if err := g.WriteMETIS(&bytes.Buffer{}); err == nil {
		t.Fatal("asymmetric graph accepted")
	}
	loop := FromEdges(1, []Edge{{0, 0}})
	if err := loop.WriteMETIS(&bytes.Buffer{}); err == nil {
		t.Fatal("self-loop accepted")
	}
}
