#!/usr/bin/env bash
# Builds roledietd and the benchmark client from the checkout's sources,
# then runs the client with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload org-audit --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/roledietd" ]; then
  echo "run.sh: no roledietd sources under $root; run from the root of a checkout" >&2
  exit 2
fi
mkdir -p "$out"

# Keep the Go caches and the go command's own config (telemetry
# counters included) inside the checkout, and never reach for a network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/roledietd" ./cmd/roledietd
(cd "$bench_dir" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -daemon .bench_build/roledietd -work .bench_build "$@"
