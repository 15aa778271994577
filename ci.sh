#!/bin/sh
# Tier-1 verification gate, equivalent to `make ci`: formatting, vet, build,
# and the full test suite under the race detector.
set -eu
cd "$(dirname "$0")"

out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	exit 1
fi
go vet ./...
go build ./...
go test -race ./...
# Fault-injection gate (`make test-fault`): the failover, liveness, and
# teardown regression tests under the race detector, each driving a real
# master/worker pair through a severed, wedged, or silently dropping
# connection.
go test -race -count=1 -run 'Failover|Liveness|IdleTimeout|Standby|BroadcastsStop|AbortReleases|SendFailureTeardown' ./internal/dist/
# Kernel-language fuzz gate (`make fuzz-lang`): ten seconds each of FuzzParse
# (lexer, parser and both compilers never panic) and FuzzBackendsAgree (the
# bytecode and closure back-ends agree on any program both accept), seeded from
# testdata/*.p2g. Minimization is off: shrinking one new 3 KB input would
# otherwise eat the whole budget.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime=10s -fuzzminimizetime=0 ./internal/lang/
go test -run '^$' -fuzz '^FuzzBackendsAgree$' -fuzztime=10s -fuzzminimizetime=0 ./internal/lang/
# Benchmark-ledger smoke gate (`make bench-smoke`): bench/ is a nested module
# (repro/bench) that `go test ./...` above does not reach. Its test drives
# every ledger workload for a few seconds against the sequential oracle, and
# under the race detector it is the widest concurrent exercise of the runtime
# in the repository. The step only invokes the ledger; it changes nothing
# under bench/.
(cd bench && go vet . && go test -race -count=2 .)
# Scheduler smoke gate: one iteration of the figure 9/10 sweeps and the
# dispatch benchmark (`make bench`) to catch crashes or stalls in the
# dispatch fast path.
go test -bench 'Fig9|Fig10|Dispatch|Analyzer' -benchtime=1x -count=1 .
# Memory-path smoke gate (`make bench-mem`): the typed slab store and
# wire-encode benchmarks with allocation reporting.
go test -bench 'FieldStoreSlab|WireEncodeFrame|FieldFetchView' -benchmem -benchtime=100x -count=1 -run xxx .
# Distributed-transport smoke gate (`make bench-transport`): one framed and
# one gob-per-store distributed MJPEG encode over TCP loopback.
go test -bench 'TransportMJPEG|FrameEncodeScatter' -benchtime=1x -count=1 -run xxx .
# Observability smoke gate (`make bench-obs`): the figure 9/10 workloads under
# each observability setting, and the tracing-off dispatch path pinned at
# zero allocations per instance.
go test -bench 'ObsOverhead' -benchtime=1x -count=1 -run xxx .
go test -run DispatchTracingOffAllocFree -count=1 ./internal/runtime/
# Kernel-language back-end smoke gate (`make bench-lang`): each benchmark
# kernel body once under the closure interpreter, the register-bytecode VM,
# and the native Go baseline — catches lowering fallbacks and VM crashes.
go test -bench 'Lang(MulSum|KMeans|Wavefront)' -benchtime=1x -count=1 -run xxx .
