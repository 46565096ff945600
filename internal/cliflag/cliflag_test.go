package cliflag

import (
	"strings"
	"testing"

	"repro/internal/chaos"
)

// TestParseChaosSites checks that ParseChaos accepts only the sites
// its caller hits: detection (sccrun) never reaches the serving-path
// sites, so naming one must fail and list the engine sites, while the
// server (sccserve) accepts every site.
func TestParseChaosSites(t *testing.T) {
	const engine = "(want trim|bfs|trim2|wcc|task|peel|uf)"
	for _, tc := range []struct{ panicSpec, stallSpec, flag string }{
		{"condense:1", "", "-chaos-panic"},
		{"wal:1", "", "-chaos-panic"},
		{"bfs:2,snapshot", "", "-chaos-panic"},
		{"", "incr", "-chaos-stall"},
		{"nosuch", "", "-chaos-panic"},
	} {
		_, err := ParseChaos(tc.panicSpec, tc.stallSpec, 0, chaos.EngineSites())
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+":") || !strings.HasSuffix(err.Error(), engine) {
			t.Errorf("ParseChaos(%q, %q) error = %v; want a %s error ending %s", tc.panicSpec, tc.stallSpec, err, tc.flag, engine)
		}
	}
	for _, s := range chaos.EngineSites() {
		cfg, err := ParseChaos(s.String()+":2", s.String(), 0, chaos.EngineSites())
		if err != nil || cfg.PanicAt[s.String()] != 2 || cfg.StallAt[s.String()] != 1 {
			t.Errorf("engine site %s: cfg = %+v, err = %v", s, cfg, err)
		}
	}
	for _, s := range chaos.Sites() {
		cfg, err := ParseChaos(s.String()+":2", "", 0, chaos.Sites())
		if err != nil || cfg.PanicAt[s.String()] != 2 {
			t.Errorf("server site %s: cfg = %+v, err = %v", s, cfg, err)
		}
	}
}
