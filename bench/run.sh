#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (see BENCHMARK.json and bench/README.md). Everything the
# build writes stays under .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD

export GOCACHE="$root/.bench_build/gocache"
export XDG_CONFIG_HOME="$root/.bench_build/config" # go's own settings and telemetry stay in the checkout
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
if [ -z "${BENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
fi
export BENCH_COMMIT="${BENCH_COMMIT:-}"

mkdir -p "$root/.bench_build"
(cd "$root/bench" && go build -o "$root/.bench_build/p2g-bench" .)
exec "$root/.bench_build/p2g-bench" "$@"
