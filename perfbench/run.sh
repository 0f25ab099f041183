#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build/ and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload vod-fleet --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build and module caches, and the
# Go config directory (env file, telemetry), live under .bench_build/ too,
# and no module is fetched: the benchmark module needs only the standard
# library and the repository's own module.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
