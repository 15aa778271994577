#!/bin/sh
# Size of the system (`make loc`): lines of non-test Go outside bench/, the one
# number ROADMAP.md and every deletion PR quote.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
