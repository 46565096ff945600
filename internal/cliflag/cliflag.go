// Package cliflag parses the flag values cmd/sccrun and cmd/sccserve
// share: byte and element counts with a K/M/G suffix, and the -chaos-*
// failure-injection flags.
package cliflag

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/scc"
)

// ParseScaled parses a count with an optional K/M/G suffix (powers of
// 1024); empty means 0. Negative counts and results above
// math.MaxInt64 are rejected with an error naming flagName.
func ParseScaled(s, flagName string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	v := s
	switch v[len(v)-1] {
	case 'k', 'K':
		mult, v = 1<<10, v[:len(v)-1]
	case 'm', 'M':
		mult, v = 1<<20, v[:len(v)-1]
	case 'g', 'G':
		mult, v = 1<<30, v[:len(v)-1]
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad %s %q (want a count with optional K/M/G suffix)", flagName, s)
	}
	return n * mult, nil
}

// ParseChaos builds a chaos configuration from the -chaos-panic and
// -chaos-stall specs (see scc.ParseChaosSpec) and -chaos-stall-for;
// all empty means no injection (nil). sites are the injection sites
// the calling command can hit: a spec naming any other site fails with
// an error that lists them.
func ParseChaos(panicSpec, stallSpec string, stallFor time.Duration, sites []chaos.Site) (*scc.ChaosConfig, error) {
	panicAt, err := parseChaosSpec(panicSpec, sites)
	if err != nil {
		return nil, fmt.Errorf("-chaos-panic: %w", err)
	}
	stallAt, err := parseChaosSpec(stallSpec, sites)
	if err != nil {
		return nil, fmt.Errorf("-chaos-stall: %w", err)
	}
	if panicAt == nil && stallAt == nil {
		return nil, nil
	}
	return &scc.ChaosConfig{PanicAt: panicAt, StallAt: stallAt, StallFor: stallFor}, nil
}

// parseChaosSpec is scc.ParseChaosSpec limited to sites.
func parseChaosSpec(spec string, sites []chaos.Site) (map[string]int64, error) {
	if _, err := chaos.ParseSpec(spec, sites...); err != nil {
		return nil, err
	}
	return scc.ParseChaosSpec(spec)
}
