package scc

import (
	"time"

	"repro/internal/chaos"
)

// ChaosSites lists the failure-injection site names: "trim" (one hit
// per Par-Trim round, or per counter-peeling counting pass under
// KernelsWorklist), "bfs" (per FW/BW BFS level), "trim2" (per Trim2
// sweep), "wcc" (per Par-WCC propagation round, or per union-find
// pass), "task" (per phase-2 recursive FW-BW task), "peel" (inside the
// counter-peeling trim kernel's drain loop, per wave or per frontier
// chunk), "uf" (inside the union-find WCC kernel's hook loops, per
// chunk), "condense" (once per condensation build on the serving
// path's rebuild — internal/server — after detection succeeds), "wal"
// (once per write-ahead-log append on the durability path —
// internal/durable), "snapshot" (once per durable snapshot write), and
// "incr" (inside the incremental SCC maintainer — internal/incr — once
// per commit and per staged merge during a cycle collapse). The "peel"
// and "uf" sites fire only under KernelsWorklist; "condense", "incr",
// "wal", and "snapshot" are never hit by Detect itself, only by the
// server's rebuild and durability paths.
func ChaosSites() []string {
	sites := chaos.Sites()
	names := make([]string, len(sites))
	for i, s := range sites {
		names[i] = s.String()
	}
	return names
}

// ChaosConfig configures deterministic failure injection into the
// parallel engine (Baseline, Method1, Method2, FWBW), for robustness
// testing — the in-memory mirror of dist.FaultInjector. Failures fire
// at hit ordinals rather than probabilities: a kernel's hit sequence
// is already deterministic for a given (graph, options) pair, so
// "panic on the 2nd BFS level" reproduces the identical failure every
// run. Sequential algorithms never hit an injection site.
//
// Keys are site names (see ChaosSites); unknown names are rejected by
// option validation. Ordinals are 1-based; entries <= 0 are invalid.
type ChaosConfig struct {
	// PanicAt panics on the named site's N-th hit. The run returns a
	// *PanicError wrapping the injected value.
	PanicAt map[string]int64
	// StallAt stalls the named site's N-th hit: the hitting worker
	// blocks until StallFor elapses (then resumes normally, modeling a
	// slow round) or until the run is torn down around it (cancellation
	// or watchdog abort), whereupon it unwinds.
	StallAt map[string]int64
	// StallFor bounds each stall; 0 stalls until teardown — a true
	// wedge, which only a context deadline or Options.StallTimeout can
	// break.
	StallFor time.Duration
}

// validate checks every site name and ordinal, returning an
// *OptionError naming the offending entry.
func (c *ChaosConfig) validate() error {
	if c == nil {
		return nil
	}
	for field, m := range map[string]map[string]int64{"Chaos.PanicAt": c.PanicAt, "Chaos.StallAt": c.StallAt} {
		for name, n := range m {
			if _, err := chaos.ParseSite(name); err != nil {
				return &OptionError{Field: field, Value: name, Reason: "unknown chaos site"}
			}
			if n < 1 {
				return &OptionError{Field: field, Value: n, Reason: "hit ordinal must be >= 1"}
			}
		}
	}
	if c.StallFor < 0 {
		return &OptionError{Field: "Chaos.StallFor", Value: c.StallFor, Reason: "must be >= 0"}
	}
	return nil
}

// ParseChaosSpec parses the "site[:n][,site[:n]...]" flag syntax used
// by sccrun's -chaos-panic and -chaos-stall into a ChaosConfig map: a
// bare site name means its first hit. Returns nil for empty input.
func ParseChaosSpec(spec string) (map[string]int64, error) {
	m, err := chaos.ParseSpec(spec)
	if err != nil || m == nil {
		return nil, err
	}
	out := make(map[string]int64, len(m))
	for s, n := range m {
		out[s.String()] = n
	}
	return out, nil
}
