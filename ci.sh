#!/bin/sh
# Tier-1 verification gate: `make ci` (formatting, vet, layering, retired
# identifiers, the design-document gate, build, one run of every example, the full test suite under the
# race detector, the allocation pins without it) plus the fault-injection,
# fuzz and benchmark gates below.
set -eu
cd "$(dirname "$0")"

out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	exit 1
fi
go vet ./...
# Layering gate (`make layers`): the package DAG the design relies on.
scripts/layers.sh
# Retired-identifier gate (`make retired`): no name a simplification deleted
# comes back in the non-test Go outside bench/.
scripts/retired.sh
# Design-document gate (`make docs`): DESIGN.md stays under 50 000 bytes and
# names no pull request.
scripts/docs.sh
go build ./...
# Examples gate (`make examples`): each of the seven runs once to completion
# — examples/distributed is the one end-to-end loopback cluster outside the
# tests. It and examples/kmeans exit 1 when their centroids differ from the
# sequential baseline, examples/mjpeg when its bitstream differs from the
# single-threaded encoder's.
for e in examples/*/; do
	go run "./$e" >/dev/null
done
go test -race ./...
# Allocation pins (`make norace`): the zero-alloc dispatch, slab, frame
# pool-reuse, warm slice-body and validation tests skip themselves under the
# race detector, which allocates on its own, so the five packages that hold
# them run once more without it.
go test -count=1 ./internal/core/ ./internal/field/ ./internal/runtime/ ./internal/dist/ ./internal/lang/
# Fault-injection gate (`make test-fault`): the failover, liveness, and
# teardown regression tests under the race detector, each driving a real
# master/worker pair through a severed, wedged, or silently dropping
# connection, and the index-share split's ownership, bit-identity and pacing
# tests.
go test -race -count=1 -run 'Failover|Liveness|IdleTimeout|Standby|BroadcastsStop|AbortReleases|SendFailureTeardown|ShareOwnership|SplitKernelsBitIdentical|StoppedWorker|ReplayTargetDeath' ./internal/dist/
# Kernel-language fuzz gate (`make fuzz-lang`): ten seconds each of FuzzParse
# (lexer, parser and compiler never panic, and nothing crashes the lowering)
# and FuzzVMMatchesOracle (the bytecode VM and the test-only tree-walking
# oracle agree on any program the compiler accepts), seeded from
# testdata/*.p2g. Minimization is off: shrinking one new 3 KB input would
# otherwise eat the whole budget.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime=10s -fuzzminimizetime=0 ./internal/lang/
go test -run '^$' -fuzz '^FuzzVMMatchesOracle$' -fuzztime=10s -fuzzminimizetime=0 ./internal/lang/
# Decoder fuzz gate (`make fuzz-wire`): ten seconds each of
# FuzzDecodeWireValue, FuzzDecodeStoreFrame, FuzzDecodeEnvelope and
# FuzzTCPRecv — the decoders of bytes a peer sends never panic, whatever
# decodes re-encodes to bytes that decode to the same result, and a TCP
# stream costs memory in proportion to the bytes it carries plus the gob cap.
go test -run '^$' -fuzz '^FuzzDecodeWireValue$' -fuzztime=10s -fuzzminimizetime=0 ./internal/field/
go test -run '^$' -fuzz '^FuzzDecodeStoreFrame$' -fuzztime=10s -fuzzminimizetime=0 ./internal/runtime/
go test -run '^$' -fuzz '^FuzzDecodeEnvelope$' -fuzztime=10s -fuzzminimizetime=0 ./internal/dist/
go test -run '^$' -fuzz '^FuzzTCPRecv$' -fuzztime=10s -fuzzminimizetime=0 ./internal/dist/
# Benchmark-ledger smoke gate (`make bench-smoke`): bench/ is a nested module
# (repro/bench) that `go test ./...` above does not reach. Its test drives
# every ledger workload for a few seconds against the sequential oracle, and
# under the race detector it is the widest concurrent exercise of the runtime
# in the repository. The step only invokes the ledger; it changes nothing
# under bench/.
(cd bench && go vet . && go test -race -count=2 .)
# Benchmark crash gate (`make bench`): every testing.B target of the root
# package once, so what bench_test.go holds keeps compiling and running.
go test -run xxx -bench . -benchtime=1x .
