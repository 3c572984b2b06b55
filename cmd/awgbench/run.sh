#!/usr/bin/env bash
# Builds awgbench from the sources of the checkout it is run from, then runs
# it with the given arguments:
#
#   bash cmd/awgbench/run.sh --workload litmus-hunt --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build writes (binary, Go
# build cache, Go telemetry) stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOPROXY=off

# The build log goes to stderr so the last line of stdout stays the result.
(cd "$bench_dir" && go build -o "$out/awgbench" .) >&2
exec "$out/awgbench" "$@"
