package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/graph"
	"repro/scc"
)

// testGraph builds the canonical fixture: SCC A = {0,1,2}, SCC B =
// {3,4}, node 5 trivial, with the component edge A→B. Reachability:
// 0→4 holds, 3→0 does not.
func testGraph() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	b.AddEdge(4, 3)
	b.AddEdge(2, 3)
	return b.Build()
}

func quietCfg() Config {
	return Config{Logf: func(string, ...any) {}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg, testGraph())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode, m
}

func postBody(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return resp, m
}

func TestQueryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())

	code, m := getJSON(t, ts.URL+"/componentof?node=0")
	if code != http.StatusOK {
		t.Fatalf("componentof: status %d (%v)", code, m)
	}
	if m["size"].(float64) != 3 {
		t.Errorf("componentof node 0: size = %v, want 3", m["size"])
	}
	if m["epoch"].(float64) != 1 {
		t.Errorf("componentof: epoch = %v, want 1", m["epoch"])
	}

	code, m = getJSON(t, ts.URL+"/same?u=0&v=2")
	if code != http.StatusOK || m["same"] != true {
		t.Errorf("same 0 2: status %d same=%v, want 200 true", code, m["same"])
	}
	code, m = getJSON(t, ts.URL+"/same?u=0&v=3")
	if code != http.StatusOK || m["same"] != false {
		t.Errorf("same 0 3: status %d same=%v, want 200 false", code, m["same"])
	}

	code, m = getJSON(t, ts.URL+"/reachable?from=0&to=4")
	if code != http.StatusOK || m["reachable"] != true {
		t.Errorf("reachable 0 4: status %d reachable=%v, want 200 true", code, m["reachable"])
	}
	code, m = getJSON(t, ts.URL+"/reachable?from=3&to=0")
	if code != http.StatusOK || m["reachable"] != false {
		t.Errorf("reachable 3 0: status %d reachable=%v, want 200 false", code, m["reachable"])
	}

	// Hostile inputs fail typed and 4xx, never 5xx.
	for _, q := range []string{
		"/componentof", "/componentof?node=abc", "/componentof?node=99",
		"/componentof?node=-1", "/same?u=0", "/reachable?from=0&to=1e9",
	} {
		code, _ := getJSON(t, ts.URL+q)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}

	code, m = getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Errorf("healthz: status %d (%v)", code, m)
	}
	code, m = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK || m["ready"] != true {
		t.Errorf("readyz: status %d ready=%v, want 200 true", code, m["ready"])
	}
}

func TestUpdateAdvancesEpoch(t *testing.T) {
	s, ts := newTestServer(t, quietCfg())

	// Close the B→A cycle: {0..4} collapse into one SCC.
	resp, m := postBody(t, ts.URL+"/update?wait=1", "4 0\n")
	if resp.StatusCode != http.StatusOK || m["rebuilt"] != true {
		t.Fatalf("update: status %d body %v", resp.StatusCode, m)
	}
	if m["epoch"].(float64) != 2 {
		t.Errorf("update: epoch = %v, want 2", m["epoch"])
	}
	code, q := getJSON(t, ts.URL+"/same?u=0&v=4")
	if code != http.StatusOK || q["same"] != true {
		t.Errorf("post-update same 0 4: status %d same=%v, want 200 true", code, q["same"])
	}
	if got := s.Counters().EpochSwaps.Load(); got != 2 {
		t.Errorf("EpochSwaps = %d, want 2", got)
	}

	// A batch growing the node space works too.
	resp, m = postBody(t, ts.URL+"/update?wait=1", "6 0\n0 6\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grow update: status %d body %v", resp.StatusCode, m)
	}
	code, q = getJSON(t, ts.URL+"/same?u=6&v=0")
	if code != http.StatusOK || q["same"] != true {
		t.Errorf("grown same 6 0: status %d same=%v, want 200 true", code, q["same"])
	}
}

func TestUpdateRejectedByLimits(t *testing.T) {
	cfg := quietCfg()
	cfg.BodyLimits = graph.Limits{MaxNodes: 10, MaxEdges: 10}
	s, ts := newTestServer(t, cfg)

	resp, m := postBody(t, ts.URL+"/update", "500 0\n")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized update: status %d body %v, want 413", resp.StatusCode, m)
	}
	resp, _ = postBody(t, ts.URL+"/update", "1 0\n2 0\n3 0\n4 0\n5 0\n")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("edge-heavy update: status %d, want 413", resp.StatusCode)
	}
	// Nothing was applied.
	if n, e := s.totals(); n != 6 || e != 6 {
		t.Errorf("totals after rejections = (%d,%d), want (6,6)", n, e)
	}
	resp, _ = postBody(t, ts.URL+"/update", "not an edge\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed update: status %d, want 400", resp.StatusCode)
	}
}

// TestChaosRebuildRollback sabotages rebuild attempt 2 at the condense
// site: the update's first rebuild fails after detection succeeded, the
// old epoch keeps serving with zero query 5xx, and the loop's retry
// (attempt 3, clean) publishes the new epoch.
func TestChaosRebuildRollback(t *testing.T) {
	cfg := quietCfg()
	cfg.RebuildChaos = &scc.ChaosConfig{PanicAt: map[string]int64{"condense": 1}}
	cfg.ChaosAtRebuild = 2
	s, ts := newTestServer(t, cfg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _ := getJSON(t, ts.URL+"/componentof?node=0")
				if code >= 500 {
					bad.Add(1)
				}
			}
		}()
	}

	resp, m := postBody(t, ts.URL+"/update?wait=1", "4 0\n")
	close(stop)
	wg.Wait()
	if resp.StatusCode != http.StatusOK || m["rebuilt"] != true {
		t.Fatalf("update through sabotaged rebuild: status %d body %v", resp.StatusCode, m)
	}
	if bad.Load() != 0 {
		t.Errorf("query 5xx during sabotaged rebuild: %d, want 0", bad.Load())
	}
	ctr := s.Counters()
	if ctr.RebuildFailures.Load() < 1 {
		t.Errorf("RebuildFailures = %d, want >= 1", ctr.RebuildFailures.Load())
	}
	if ctr.QueryErr5xx.Load() != 0 {
		t.Errorf("QueryErr5xx = %d, want 0", ctr.QueryErr5xx.Load())
	}
	if got := s.Snapshot().Epoch; got != 2 {
		t.Errorf("epoch after retry = %d, want 2", got)
	}
	code, q := getJSON(t, ts.URL+"/same?u=0&v=4")
	if code != http.StatusOK || q["same"] != true {
		t.Errorf("post-rollback same 0 4: status %d same=%v", code, q["same"])
	}
}

// TestChaosRebuildStall wedges the sabotaged rebuild's condense site;
// the rebuild deadline unwinds the stall and the retry publishes.
func TestChaosRebuildStall(t *testing.T) {
	cfg := quietCfg()
	cfg.RebuildChaos = &scc.ChaosConfig{StallAt: map[string]int64{"condense": 1}}
	cfg.ChaosAtRebuild = 2
	cfg.RebuildTimeout = 100 * time.Millisecond
	s, ts := newTestServer(t, cfg)

	resp, m := postBody(t, ts.URL+"/update?wait=1", "4 0\n")
	if resp.StatusCode != http.StatusOK || m["rebuilt"] != true {
		t.Fatalf("update through stalled rebuild: status %d body %v", resp.StatusCode, m)
	}
	if s.Counters().RebuildFailures.Load() < 1 {
		t.Errorf("RebuildFailures = %d, want >= 1", s.Counters().RebuildFailures.Load())
	}
}

// TestChaosInitialBuildFailsNew sabotages attempt 1 — the synchronous
// initial build — and expects New itself to fail cleanly.
func TestChaosInitialBuildFailsNew(t *testing.T) {
	cfg := quietCfg()
	cfg.RebuildChaos = &scc.ChaosConfig{PanicAt: map[string]int64{"condense": 1}}
	cfg.ChaosAtRebuild = 1
	if s, err := New(cfg, testGraph()); err == nil {
		s.Close()
		t.Fatal("New with sabotaged initial build: got nil error")
	}
}

// TestChaosKernelSiteRollback routes in-kernel chaos (a BFS-level
// panic inside Method2) through the rebuild path: detection itself
// fails typed, the epoch rolls back, the retry publishes.
func TestChaosKernelSiteRollback(t *testing.T) {
	cfg := quietCfg()
	cfg.RebuildChaos = &scc.ChaosConfig{PanicAt: map[string]int64{"bfs": 1}}
	cfg.ChaosAtRebuild = 2
	s, ts := newTestServer(t, cfg)

	resp, m := postBody(t, ts.URL+"/update?wait=1", "4 0\n")
	if resp.StatusCode != http.StatusOK || m["rebuilt"] != true {
		t.Fatalf("update through kernel-sabotaged rebuild: status %d body %v", resp.StatusCode, m)
	}
	if s.Counters().RebuildFailures.Load() < 1 {
		t.Errorf("RebuildFailures = %d, want >= 1", s.Counters().RebuildFailures.Load())
	}
	if got := s.Snapshot().Epoch; got != 2 {
		t.Errorf("epoch = %d, want 2", got)
	}
}

// TestChaosPeelRebuildRollback sabotages rebuild attempt 2 inside the
// two-worker engine's counter-peeling trim while readers query the
// live epoch: the detection fails typed, the old epoch keeps serving
// with zero query 5xx, and the retry publishes the new epoch. A panic
// inside the kernel leaves only engine scratch half-written, never a
// half-published epoch.
func TestChaosPeelRebuildRollback(t *testing.T) {
	cfg := quietCfg()
	cfg.Options = scc.Options{Workers: 2, Seed: 5}
	cfg.RebuildChaos = &scc.ChaosConfig{PanicAt: map[string]int64{"peel": 1}}
	cfg.ChaosAtRebuild = 2
	// The fixture plus a path 7→6→8: the trim's first scan reaches 6
	// while both neighbors are still alive and removes them after it,
	// so 6 is left to the peel drain that hits the site.
	b := graph.NewBuilder(9)
	fixture := testGraph()
	for v := 0; v < fixture.NumNodes(); v++ {
		for _, w := range fixture.Out(graph.NodeID(v)) {
			b.AddEdge(graph.NodeID(v), w)
		}
	}
	b.AddEdge(7, 6)
	b.AddEdge(6, 8)
	s, err := New(cfg, b.Build())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _ := getJSON(t, ts.URL+"/same?u=0&v=2")
				if code >= 500 {
					bad.Add(1)
				}
			}
		}()
	}

	resp, m := postBody(t, ts.URL+"/update?wait=1", "4 0\n")
	close(stop)
	wg.Wait()
	if resp.StatusCode != http.StatusOK || m["rebuilt"] != true {
		t.Fatalf("update through peel-sabotaged rebuild: status %d body %v", resp.StatusCode, m)
	}
	if bad.Load() != 0 {
		t.Errorf("query 5xx during sabotaged rebuild: %d, want 0", bad.Load())
	}
	if s.Counters().RebuildFailures.Load() < 1 {
		t.Errorf("RebuildFailures = %d, want >= 1", s.Counters().RebuildFailures.Load())
	}
	if got := s.Snapshot().Epoch; got != 2 {
		t.Errorf("epoch after retry = %d, want 2", got)
	}
	code, q := getJSON(t, ts.URL+"/same?u=0&v=4")
	if code != http.StatusOK || q["same"] != true {
		t.Errorf("post-rollback same 0 4: status %d same=%v", code, q["same"])
	}
}

// TestLoadSheddingAndDrain pins the single execution slot with the
// test hold, then checks the full overload ladder: queue wait elapses
// → 429, queue full → 429, draining → 503, release → the pinned
// request completes and Drain succeeds with accepted == completed.
func TestLoadSheddingAndDrain(t *testing.T) {
	cfg := quietCfg()
	cfg.MaxInflight = 1
	cfg.QueueDepth = 1
	cfg.QueueWait = 150 * time.Millisecond
	s, ts := newTestServer(t, cfg)
	hold := make(chan struct{})
	s.testHold = hold

	type result struct {
		code  int
		retry string
	}
	results := make(chan result, 3)
	do := func() {
		resp, err := http.Get(ts.URL + "/componentof?node=0")
		if err != nil {
			results <- result{code: -1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- result{code: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	}

	go do() // A: takes the slot, parks on hold
	time.Sleep(50 * time.Millisecond)
	go do() // B: queues, then sheds after QueueWait
	time.Sleep(50 * time.Millisecond)
	go do() // C: queue full, sheds immediately

	first := <-results // C or B (both 429)
	second := <-results
	for _, r := range []result{first, second} {
		if r.code != http.StatusTooManyRequests {
			t.Errorf("shed request: status %d, want 429", r.code)
		}
		if r.retry == "" {
			t.Errorf("shed request: missing Retry-After header")
		}
	}

	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/componentof?node=0") // D: rejected
	if err != nil {
		t.Fatalf("drain-time GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining request: missing Retry-After")
	}

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(2 * time.Second) }()
	select {
	case <-drained:
		t.Fatal("Drain returned while a request was still held")
	case <-time.After(100 * time.Millisecond):
	}
	close(hold) // release A
	if a := <-results; a.code != http.StatusOK {
		t.Errorf("held request: status %d, want 200", a.code)
	}
	if ok := <-drained; !ok {
		t.Error("Drain timed out with no in-flight requests")
	}

	ctr := s.Counters()
	if acc, done := ctr.Accepted.Load(), ctr.Completed.Load(); acc != done {
		t.Errorf("accepted %d != completed %d after drain", acc, done)
	}
	if ctr.Shed.Load() < 2 {
		t.Errorf("Shed = %d, want >= 2", ctr.Shed.Load())
	}
	if ctr.DrainRejected.Load() < 1 {
		t.Errorf("DrainRejected = %d, want >= 1", ctr.DrainRejected.Load())
	}
	code, m := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["reason"] != "draining" {
		t.Errorf("draining readyz: status %d body %v, want 503 draining", code, m)
	}
}

// TestEpochSwapVsReadRace hammers the query endpoints while updates
// republish epochs, under -race: every response is 200 and epochs
// never run backwards within one goroutine's observation order.
func TestEpochSwapVsReadRace(t *testing.T) {
	s, ts := newTestServer(t, quietCfg())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lastEpoch := float64(0)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var code int
				var m map[string]any
				if n%2 == 0 {
					code, m = getJSON(t, ts.URL+"/componentof?node=0")
				} else {
					code, m = getJSON(t, ts.URL+"/reachable?from=0&to=4")
				}
				if code != http.StatusOK {
					t.Errorf("reader %d: status %d", id, code)
					return
				}
				e := m["epoch"].(float64)
				if e < lastEpoch {
					t.Errorf("reader %d: epoch went backwards %v -> %v", id, lastEpoch, e)
					return
				}
				lastEpoch = e
			}
		}(i)
	}

	// Publish a stream of epochs, each batch growing the graph.
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf("%d 0\n0 %d\n", 10+i, 10+i)
		resp, m := postBody(t, ts.URL+"/update?wait=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d body %v", i, resp.StatusCode, m)
		}
	}
	close(stop)
	wg.Wait()

	if got := s.Snapshot().Epoch; got != 9 {
		t.Errorf("final epoch = %d, want 9", got)
	}
}

func TestAdhocSCC(t *testing.T) {
	s, ts := newTestServer(t, quietCfg())

	resp, m := postBody(t, ts.URL+"/scc", "0 1\n1 0\n2 2\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/scc: status %d body %v", resp.StatusCode, m)
	}
	if m["num_sccs"].(float64) != 2 {
		t.Errorf("/scc: num_sccs = %v, want 2", m["num_sccs"])
	}

	resp, _ = postBody(t, ts.URL+"/scc", "garbage\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/scc malformed: status %d, want 400", resp.StatusCode)
	}

	// Engine held (as by an in-flight rebuild) → busy maps to 429.
	s.engineMu.Lock()
	resp, m = postBody(t, ts.URL+"/scc", "0 1\n1 0\n")
	s.engineMu.Unlock()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("/scc busy: status %d body %v, want 429", resp.StatusCode, m)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("/scc busy: missing Retry-After")
	}

	cfg := quietCfg()
	cfg.BodyLimits = graph.Limits{MaxNodes: 4}
	_, ts2 := newTestServer(t, cfg)
	resp, _ = postBody(t, ts2.URL+"/scc", "100 0\n")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("/scc oversized: status %d, want 413", resp.StatusCode)
	}
}

// TestReadyzStaleness flags readiness when updates stay unbuilt past
// MaxEpochAge. A rebuild chaos config that fails every retry in the
// window keeps the epoch stale.
func TestReadyzStaleness(t *testing.T) {
	cfg := quietCfg()
	cfg.MaxEpochAge = 30 * time.Millisecond
	// Sabotage attempts 2..∞ is not expressible; instead wedge the
	// loop briefly with a stall bounded by a long rebuild timeout.
	cfg.RebuildChaos = &scc.ChaosConfig{
		StallAt:  map[string]int64{"condense": 1},
		StallFor: 400 * time.Millisecond,
	}
	cfg.ChaosAtRebuild = 2
	_, ts := newTestServer(t, cfg)

	resp, _ := postBody(t, ts.URL+"/update", "4 0\n")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("update: status %d, want 202", resp.StatusCode)
	}
	time.Sleep(100 * time.Millisecond) // > MaxEpochAge, rebuild still wedged
	code, m := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["reason"] != "stale" {
		t.Errorf("stale readyz: status %d body %v, want 503 stale", code, m)
	}
	// The stall resumes (bounded), the rebuild publishes, readiness
	// returns.
	deadline := time.Now().Add(3 * time.Second)
	for {
		code, _ = getJSON(t, ts.URL+"/readyz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never recovered after the stall resumed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestStatsShape(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	code, m := getJSON(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	for _, key := range []string{"epoch", "nodes", "edges", "num_sccs", "algorithm", "counters"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/stats: missing %q", key)
		}
	}
	if m["nodes"].(float64) != 6 {
		t.Errorf("/stats nodes = %v, want 6", m["nodes"])
	}
}
