package graph

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Binary graph format ("SCCG"): a compact little-endian dump of the CSR
// arrays so large generated datasets load without re-sorting.
//
//	magic   [4]byte  "SCCG"
//	version uint32   1
//	n       uint64   node count
//	m       uint64   edge count
//	outIdx  [n+1]uint64
//	outAdj  [m]uint32
//	inIdx   [n+1]uint64
//	inAdj   [m]uint32

const (
	binaryMagic   = "SCCG"
	binaryVersion = 1
)

// Save writes g to w in the SCCG binary format.
func (g *Graph) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := make([]byte, 4+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(g.NumNodes()))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := writeInt64s(bw, g.outIdx); err != nil {
		return err
	}
	if err := writeNodeIDs(bw, g.outAdj); err != nil {
		return err
	}
	if err := writeInt64s(bw, g.inIdx); err != nil {
		return err
	}
	if err := writeNodeIDs(bw, g.inAdj); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a graph in the SCCG binary format. Corrupt or truncated
// input is rejected with an error wrapping ErrMalformed; the loaded
// CSR arrays are validated before the graph is returned, so a
// successful Load never yields out-of-range, unsorted or duplicate
// adjacency entries. Use
// LoadLimited to additionally cap the accepted size and make the load
// cancelable.
func Load(r io.Reader) (*Graph, error) {
	return loadBinary(context.Background(), r, Limits{})
}

func loadBinary(ctx context.Context, r io.Reader, lim Limits) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, malformed("sccg", 0, err, "reading magic")
	}
	if string(magic) != binaryMagic {
		return nil, malformed("sccg", 0, nil, "bad magic %q", magic)
	}
	hdr := make([]byte, 4+8+8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, malformed("sccg", 0, err, "reading header")
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != binaryVersion {
		return nil, malformed("sccg", 0, nil, "unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[4:])
	m := binary.LittleEndian.Uint64(hdr[12:])
	const maxNodes = 1 << 31
	if n >= maxNodes {
		return nil, malformed("sccg", 0, nil, "node count %d exceeds 32-bit id space", n)
	}
	const maxEdges = 1 << 40 // 4 TiB of adjacency — far beyond any valid file
	if m > maxEdges {
		return nil, malformed("sccg", 0, nil, "implausible edge count %d", m)
	}
	if err := lim.checkNodes("sccg", int64(n)); err != nil {
		return nil, err
	}
	if err := lim.checkEdges("sccg", int64(m)); err != nil {
		return nil, err
	}
	g := &Graph{}
	var err error
	if g.outIdx, err = readInt64s(ctx, br, int(n)+1); err != nil {
		return nil, err
	}
	if g.outAdj, err = readNodeIDs(ctx, br, int(m)); err != nil {
		return nil, err
	}
	if g.inIdx, err = readInt64s(ctx, br, int(n)+1); err != nil {
		return nil, err
	}
	if g.inAdj, err = readNodeIDs(ctx, br, int(m)); err != nil {
		return nil, err
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// SaveFile writes g to the named file in the SCCG binary format.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a graph from a file in the SCCG binary format.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// validate checks CSR structural invariants after an untrusted load.
// Every violation wraps ErrMalformed.
func (g *Graph) validate() error {
	n := g.NumNodes()
	for _, dir := range []struct {
		name string
		idx  []int64
		adj  []NodeID
	}{{"out", g.outIdx, g.outAdj}, {"in", g.inIdx, g.inAdj}} {
		if dir.idx[0] != 0 {
			return malformed("sccg", 0, nil, "%s index does not start at 0", dir.name)
		}
		for v := 0; v < n; v++ {
			if dir.idx[v] > dir.idx[v+1] {
				return malformed("sccg", 0, nil, "%s index not monotone at node %d", dir.name, v)
			}
		}
		if dir.idx[n] != int64(len(dir.adj)) {
			return malformed("sccg", 0, nil, "%s index end %d != adjacency length %d",
				dir.name, dir.idx[n], len(dir.adj))
		}
		for _, t := range dir.adj {
			if t < 0 || int(t) >= n {
				return malformed("sccg", 0, nil, "%s adjacency target %d out of range [0,%d)", dir.name, t, n)
			}
		}
		// Kernels binary-search adjacency lists, so each must be sorted
		// and duplicate-free, as Build leaves it.
		for v := 0; v < n; v++ {
			for i := dir.idx[v] + 1; i < dir.idx[v+1]; i++ {
				if dir.adj[i] <= dir.adj[i-1] {
					return malformed("sccg", 0, nil, "%s adjacency of node %d not strictly increasing", dir.name, v)
				}
			}
		}
	}
	if len(g.outAdj) != len(g.inAdj) {
		return malformed("sccg", 0, nil, "out edges %d != in edges %d", len(g.outAdj), len(g.inAdj))
	}
	return nil
}

func writeInt64s(w io.Writer, v []int64) error {
	buf := make([]byte, 8192)
	for len(v) > 0 {
		chunk := len(buf) / 8
		if chunk > len(v) {
			chunk = len(v)
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v[i]))
		}
		if _, err := w.Write(buf[:chunk*8]); err != nil {
			return err
		}
		v = v[chunk:]
	}
	return nil
}

func writeNodeIDs(w io.Writer, v []NodeID) error {
	buf := make([]byte, 8192)
	for len(v) > 0 {
		chunk := len(buf) / 4
		if chunk > len(v) {
			chunk = len(v)
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(v[i]))
		}
		if _, err := w.Write(buf[:chunk*4]); err != nil {
			return err
		}
		v = v[chunk:]
	}
	return nil
}

// maxEagerAlloc bounds how many elements the readers allocate before
// any input has actually arrived: a corrupt header claiming billions of
// edges must not OOM the loader, so buffers grow with the data instead
// of being sized from the untrusted count.
const maxEagerAlloc = 1 << 20

// idSpaceLimit bounds the node-id space a text-format file may imply
// relative to the edges it actually contains. Building CSR arrays
// costs memory per id whether or not the id is used, so a kilobyte of
// text declaring a multi-gigabyte id space is a malformed (or hostile)
// file, not a big graph; the slack factor comfortably admits every
// real dataset in SNAP/KONECT style (sparse ids there are sparse by a
// small constant factor, not by orders of magnitude).
func idSpaceLimit(edges int64) int64 {
	const base, perEdge = 1 << 16, 256
	limit := base + perEdge*edges
	if limit > 1<<31-1 {
		return 1<<31 - 1
	}
	return limit
}

func readInt64s(ctx context.Context, r io.Reader, n int) ([]int64, error) {
	out := make([]int64, 0, min(n, maxEagerAlloc))
	buf := make([]byte, 8192)
	for chunks := 0; len(out) < n; chunks++ {
		if chunks%cancelCheckEvery == 0 {
			if err := checkCtx(ctx, "sccg"); err != nil {
				return nil, err
			}
		}
		chunk := len(buf) / 8
		if chunk > n-len(out) {
			chunk = n - len(out)
		}
		if _, err := io.ReadFull(r, buf[:chunk*8]); err != nil {
			return nil, malformed("sccg", 0, err, "truncated int64 block")
		}
		for j := 0; j < chunk; j++ {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[j*8:])))
		}
	}
	return out, nil
}

func readNodeIDs(ctx context.Context, r io.Reader, n int) ([]NodeID, error) {
	out := make([]NodeID, 0, min(n, maxEagerAlloc))
	buf := make([]byte, 8192)
	for chunks := 0; len(out) < n; chunks++ {
		if chunks%cancelCheckEvery == 0 {
			if err := checkCtx(ctx, "sccg"); err != nil {
				return nil, err
			}
		}
		chunk := len(buf) / 4
		if chunk > n-len(out) {
			chunk = n - len(out)
		}
		if _, err := io.ReadFull(r, buf[:chunk*4]); err != nil {
			return nil, malformed("sccg", 0, err, "truncated node block")
		}
		for j := 0; j < chunk; j++ {
			out = append(out, NodeID(binary.LittleEndian.Uint32(buf[j*4:])))
		}
	}
	return out, nil
}

// ReadEdgeList parses a whitespace-separated text edge list ("u v" per
// line; '#' and '%' comment lines are skipped, matching SNAP / KONECT
// conventions). Node IDs may be sparse; they are used verbatim, so the
// resulting graph has max(id)+1 nodes. Malformed lines (missing
// fields, non-numeric or negative ids, ids overflowing the 32-bit node
// space) return an error wrapping ErrMalformed. Use
// ReadEdgeListLimited to additionally cap the accepted size and make
// the load cancelable.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return readEdgeList(context.Background(), r, Limits{})
}

func readEdgeList(ctx context.Context, r io.Reader, lim Limits) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if lineNo%cancelCheckEvery == 0 {
			if err := checkCtx(ctx, "edgelist"); err != nil {
				return nil, err
			}
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, malformed("edgelist", lineNo, nil, "want at least 2 fields, got %d", len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, malformed("edgelist", lineNo, err, "bad source id %q", fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, malformed("edgelist", lineNo, err, "bad target id %q", fields[1])
		}
		if u < 0 || v < 0 {
			return nil, malformed("edgelist", lineNo, nil, "negative node id")
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		// Limits are enforced as the counts accumulate, not after the
		// whole file is parsed: a hostile stream must be rejected before
		// it can make the edge buffer grow unboundedly.
		if err := lim.checkNodes("edgelist", maxID+1); err != nil {
			return nil, err
		}
		if err := lim.checkEdges("edgelist", int64(len(edges))+1); err != nil {
			return nil, err
		}
		edges = append(edges, Edge{NodeID(u), NodeID(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// maxID is capped at MaxInt32-1 so that the node count maxID+1
	// still fits the 32-bit id space (and cannot silently wrap).
	if maxID >= 1<<31-1 {
		return nil, malformed("edgelist", 0, nil, "node id %d exceeds 32-bit id space", maxID)
	}
	if limit := idSpaceLimit(int64(len(edges))); maxID >= limit {
		return nil, malformed("edgelist", 0, nil,
			"id space implausibly sparse: max id %d with only %d edges (limit %d); relabel the ids densely", maxID, len(edges), limit)
	}
	return FromEdges(int(maxID+1), edges), nil
}

// WriteEdgeList writes g as a text edge list, one "u v" pair per line.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		for _, t := range g.Out(NodeID(v)) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
