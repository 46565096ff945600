// Package chaos deterministically injects failures into the SCC
// engine. Kernels call Injector.Hit at named sites — once per trim
// round, BFS level, Trim2 sweep, WCC round, and phase-2 task — and the
// injector fires a panic or a stall at a configured hit ordinal.
//
// No seeded RNG is needed: a kernel's hit sequence is already
// deterministic for a given (graph, options) pair, so "fire at the Nth
// hit of site S" reproduces the identical failure every run, which is
// what the chaos matrix tests require. All methods are safe for
// concurrent use from kernel workers (-race clean).
package chaos

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// Site names an injection point in the engine.
type Site uint8

const (
	// SiteTrim is hit once per Par-Trim round (Alg. 2).
	SiteTrim Site = iota
	// SiteBFS is hit once per FW/BW BFS level, top-down or bottom-up.
	SiteBFS
	// SiteTrim2 is hit once per Trim2 sweep (Alg. 3).
	SiteTrim2
	// SiteWCC is hit once per Par-WCC label-propagation round (Alg. 5)
	// under the legacy kernels, and once per union-find pass (sample,
	// full, flatten) under the worklist kernels.
	SiteWCC
	// SiteTask is hit once per phase-2 recursive FW-BW task (§4.3).
	SiteTask
	// SitePeel is hit inside the support-pointer trim kernel's drain
	// loop: once per drain wave, the cascade's removals included (per
	// frontier chunk when parallel), so
	// injected failures land inside the worklist peeling itself rather
	// than at the round boundary SiteTrim covers.
	SitePeel
	// SiteUF is hit inside the union-find WCC kernel's hook loops
	// (sampling and full passes), once per chunk, exercising failure
	// capture mid-union rather than at the pass boundary.
	SiteUF
	// SiteCondense is hit once per condensation build on the serving
	// path (internal/server), after detection succeeds and before the
	// new epoch is published. It exists to sabotage the rebuild at the
	// point where detection already worked — the rollback case the
	// in-kernel sites cannot reach. The detection engine itself never
	// hits this site.
	SiteCondense
	// SiteWAL is hit once per write-ahead-log append on the durability
	// path (internal/durable), before the record reaches the log. Like
	// SiteCondense it is a serving-path site the detection engine never
	// hits; it sabotages the accept path so tests can pin that a batch
	// whose append failed is never acknowledged.
	SiteWAL
	// SiteSnapshot is hit once per durable snapshot write
	// (internal/durable), before the temp file is created, sabotaging
	// compaction without touching the log itself — recovery must then
	// replay a longer WAL tail from the previous snapshot.
	SiteSnapshot
	// SiteIncr is hit by the incremental SCC maintainer (internal/incr):
	// once at the start of each commit and once per staged component
	// merge during a cycle collapse, so injected failures land while the
	// staged labeling is half-merged — the rollback case incremental
	// epoch production adds on top of the full-rebuild sites. The
	// detection engine never hits this site.
	SiteIncr

	numSites = 11
)

// String returns the flag spelling of the site (trim, bfs, trim2,
// wcc, task, peel, uf, condense, wal, snapshot, incr).
func (s Site) String() string {
	switch s {
	case SiteTrim:
		return "trim"
	case SiteBFS:
		return "bfs"
	case SiteTrim2:
		return "trim2"
	case SiteWCC:
		return "wcc"
	case SiteTask:
		return "task"
	case SitePeel:
		return "peel"
	case SiteUF:
		return "uf"
	case SiteCondense:
		return "condense"
	case SiteWAL:
		return "wal"
	case SiteSnapshot:
		return "snapshot"
	case SiteIncr:
		return "incr"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Sites lists every injection site, in flag-spelling order.
func Sites() []Site {
	return []Site{SiteTrim, SiteBFS, SiteTrim2, SiteWCC, SiteTask, SitePeel, SiteUF, SiteCondense, SiteWAL, SiteSnapshot, SiteIncr}
}

// EngineSites lists the sites the in-memory detection engine hits
// (everything but the serving-path SiteCondense/SiteIncr and the
// durability sites SiteWAL/SiteSnapshot).
func EngineSites() []Site {
	return []Site{SiteTrim, SiteBFS, SiteTrim2, SiteWCC, SiteTask, SitePeel, SiteUF}
}

// ParseSite maps a flag spelling (see Site.String) to its Site.
func ParseSite(name string) (Site, error) {
	return parseSite(name, Sites())
}

// parseSite is ParseSite limited to sites: any other name fails with
// an error that lists exactly their spellings.
func parseSite(name string, sites []Site) (Site, error) {
	for _, s := range sites {
		if s.String() == name {
			return s, nil
		}
	}
	names := make([]string, len(sites))
	for i, s := range sites {
		names[i] = s.String()
	}
	return 0, fmt.Errorf("chaos: unknown site %q (want %s)", name, strings.Join(names, "|"))
}

// Panic is the value an injected panic panics with. Engine panic
// capture treats it like any other panic value; tests match on it to
// tell injected panics from real bugs.
type Panic struct {
	// Site is the injection site that fired.
	Site Site
	// Hit is the 1-based hit ordinal it fired on.
	Hit int64
}

func (p Panic) Error() string {
	return fmt.Sprintf("chaos: injected panic at %s hit %d", p.Site, p.Hit)
}

// Released is the value a stalled hit panics with when the run is torn
// down around it (Bind channel closed or Release called): the worker
// must not resume writing into scratch state the teardown may already
// have released, so it unwinds instead of returning.
type Released struct {
	// Site is the stalled injection site.
	Site Site
}

func (r Released) Error() string {
	return fmt.Sprintf("chaos: stall at %s released by teardown", r.Site)
}

// Config parameterizes an Injector. The zero value injects nothing.
type Config struct {
	// PanicAt[site], when > 0, panics on that site's PanicAt-th hit
	// (1-based).
	PanicAt map[Site]int64
	// StallAt[site], when > 0, stalls that site's StallAt-th hit: the
	// hitting worker blocks until StallFor elapses (then resumes
	// normally, modeling a slow round) or until the injector is
	// released (then unwinds with a Released panic, modeling teardown
	// of a wedged round).
	StallAt map[Site]int64
	// StallFor bounds each stall. 0 means stall until released — a
	// true wedge, for watchdog tests.
	StallFor time.Duration
}

// Stats counts what an injector observed and fired.
type Stats struct {
	// Hits is the per-site hit count, indexed by Site.
	Hits [numSites]int64
	// Panics is the number of injected panics.
	Panics int64
	// Stalls is the number of injected stalls.
	Stalls int64
}

// Injector injects the configured failures. A nil *Injector is valid
// and injects nothing: Hit on nil is the kernels' fast path and costs
// only the nil check.
type Injector struct {
	panicAt  [numSites]int64
	stallAt  [numSites]int64
	stallFor time.Duration

	hits   [numSites]atomic.Int64
	panics atomic.Int64
	stalls atomic.Int64

	released chan struct{}
	relOnce  atomic.Bool
	bound    atomic.Pointer[<-chan struct{}]
}

// New builds an injector for cfg.
func New(cfg Config) *Injector {
	in := &Injector{stallFor: cfg.StallFor, released: make(chan struct{})}
	for s, n := range cfg.PanicAt {
		if int(s) < numSites {
			in.panicAt[s] = n
		}
	}
	for s, n := range cfg.StallAt {
		if int(s) < numSites {
			in.stallAt[s] = n
		}
	}
	return in
}

// NewNamed builds an injector from PanicAt/StallAt maps keyed by site
// name (see Site.String), the form user-facing configs carry. Entries
// with an unknown name or an ordinal below 1 are skipped. With no
// sites given every site is armed, and the injector is built even
// when no entry survives. With sites given only those sites are
// armed, and NewNamed returns nil when none of them has an entry.
func NewNamed(panicAt, stallAt map[string]int64, stallFor time.Duration, sites ...Site) *Injector {
	in := New(Config{StallFor: stallFor})
	armed := false
	arm := func(dst *[numSites]int64, src map[string]int64) {
		for name, n := range src {
			s, err := ParseSite(name)
			if err == nil && n >= 1 && (len(sites) == 0 || slices.Contains(sites, s)) {
				dst[s] = n
				armed = true
			}
		}
	}
	arm(&in.panicAt, panicAt)
	arm(&in.stallAt, stallAt)
	if len(sites) > 0 && !armed {
		return nil
	}
	return in
}

// Bind attaches the run's done channel: when it closes, every active
// and future stall unwinds with a Released panic instead of blocking
// forever. The engine binds its run context's Done so that
// cancellation and watchdog aborts reach workers wedged inside a
// stalled hit. Nil-safe.
func (in *Injector) Bind(done <-chan struct{}) {
	if in == nil {
		return
	}
	in.bound.Store(&done)
}

// Release unwinds every active and future stall with a Released
// panic. Idempotent, nil-safe.
func (in *Injector) Release() {
	if in == nil {
		return
	}
	if in.relOnce.CompareAndSwap(false, true) {
		close(in.released)
	}
}

// Stats returns a snapshot of the injector's counters. Nil-safe.
func (in *Injector) Stats() Stats {
	var st Stats
	if in == nil {
		return st
	}
	for s := range st.Hits {
		st.Hits[s] = in.hits[s].Load()
	}
	st.Panics = in.panics.Load()
	st.Stalls = in.stalls.Load()
	return st
}

// Hit reports one execution of site s and fires any failure scheduled
// for this ordinal. Nil receivers return immediately.
func (in *Injector) Hit(s Site) {
	if in == nil {
		return
	}
	n := in.hits[s].Add(1)
	if in.panicAt[s] == n {
		in.panics.Add(1)
		panic(Panic{Site: s, Hit: n})
	}
	if in.stallAt[s] == n {
		in.stalls.Add(1)
		in.stall(s)
	}
}

// stall blocks the calling worker per the configured stall semantics.
func (in *Injector) stall(s Site) {
	var timer <-chan time.Time
	if in.stallFor > 0 {
		t := time.NewTimer(in.stallFor)
		defer t.Stop()
		timer = t.C
	}
	var bound <-chan struct{}
	if p := in.bound.Load(); p != nil {
		bound = *p
	}
	select {
	case <-timer:
		// The stall elapsed: resume normally (a slow round, not a
		// wedged one).
	case <-in.released:
		panic(Released{Site: s})
	case <-bound:
		panic(Released{Site: s})
	}
}

// FormatSpec renders a PanicAt/StallAt map back to the sccrun flag
// syntax ("site:n[,site:n...]"), for diagnostics.
func FormatSpec(m map[Site]int64) string {
	var parts []string
	for _, s := range Sites() {
		if n := m[s]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", s, n))
		}
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the sccrun flag syntax "site:n[,site:n...]" into a
// PanicAt/StallAt map. Empty input yields a nil map. With sites given,
// a name outside them is rejected; with none, every site is accepted.
func ParseSpec(spec string, sites ...Site) (map[Site]int64, error) {
	if spec == "" {
		return nil, nil
	}
	if len(sites) == 0 {
		sites = Sites()
	}
	m := make(map[Site]int64)
	for _, part := range strings.Split(spec, ",") {
		name, ord, ok := strings.Cut(strings.TrimSpace(part), ":")
		n := int64(1)
		if ok {
			if _, err := fmt.Sscanf(ord, "%d", &n); err != nil || n < 1 {
				return nil, fmt.Errorf("chaos: bad hit ordinal %q in %q", ord, part)
			}
		}
		s, err := parseSite(name, sites)
		if err != nil {
			return nil, err
		}
		m[s] = n
	}
	return m, nil
}
