#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload detect-flickr --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 30
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout. The last line of standard output is the JSON
# result; --workload all runs every workload, each in its own process.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

# Keep the toolchain offline and its caches and temporary files inside
# the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	go build -buildvcs=false -o "$build/perfbench" .) >&2

# The commit is stamped only when the checkout is itself a git work tree.
commit=unknown
if [[ -e "$root/.git" ]]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

if [[ "${1:-}" == "--workload" && "${2:-}" == "all" ]]; then
	shift 2
	for w in $("$build/perfbench" --list); do
		"$build/perfbench" --workdir "$build" --commit "$commit" --workload "$w" "$@"
	done
	exit 0
fi
exec "$build/perfbench" --workdir "$build" --commit "$commit" "$@"
