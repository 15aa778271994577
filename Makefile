GO ?= go

.PHONY: all build test race vet fmt-check ci test-fault fuzz-lang bench-smoke bench bench-mem bench-transport bench-obs bench-lang bench-full bench-json clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# ci is the tier-1 gate: formatting, static checks, build, and the full test
# suite under the race detector.
ci: fmt-check vet build race

# test-fault is the fault-injection gate (also run by ci.sh): the failover,
# liveness, and teardown regression tests under the race detector — every
# scenario drives a real master/worker pair through a FaultConn (severed,
# wedged, or silently dropping connections).
test-fault:
	$(GO) test -race -count=1 -run 'Failover|Liveness|IdleTimeout|Standby|BroadcastsStop|AbortReleases|SendFailureTeardown' ./internal/dist/

# fuzz-lang is the kernel-language fuzz gate (also run by ci.sh): ten seconds
# each of FuzzParse (lexer, parser and both compilers never panic) and
# FuzzBackendsAgree (bytecode and closure back-ends agree on any program both
# accept), seeded from testdata/*.p2g. Minimization is off: shrinking one new
# 3 KB input would otherwise eat the whole budget.
fuzz-lang:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s -fuzzminimizetime=0 ./internal/lang/
	$(GO) test -run '^$$' -fuzz '^FuzzBackendsAgree$$' -fuzztime=10s -fuzzminimizetime=0 ./internal/lang/

# bench-smoke is the benchmark-ledger smoke gate (also run by ci.sh): bench/
# is a nested module (repro/bench) that `go test ./...` does not reach. Its
# test drives every ledger workload for a few seconds against the sequential
# oracle, under the race detector. The target only invokes the ledger; it
# changes nothing under bench/.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test -race -count=2 .

# bench is the scheduler smoke gate (also run by ci.sh): one iteration of the
# figure 9/10 sweeps and the dispatch benchmark, enough to catch crashes or
# stalls in the dispatch fast path without a full measurement run.
bench:
	$(GO) test -bench 'Fig9|Fig10|Dispatch|Analyzer' -benchtime=1x -count=1 .

# bench-mem is the memory-path smoke gate (also run by ci.sh): the typed slab
# store and wire-encode benchmarks with allocation reporting, enough to catch
# regressions that reintroduce boxing or per-element allocation on the bulk
# store/fetch path.
bench-mem:
	$(GO) test -bench 'FieldStoreSlab|WireEncodeFrame|FieldFetchView' -benchmem -benchtime=100x -count=1 -run xxx .

# bench-transport is the distributed-transport smoke gate (also run by
# ci.sh): one framed and one gob-per-store distributed MJPEG encode over TCP
# loopback, enough to catch protocol or framing breaks on the store path.
bench-transport:
	$(GO) test -bench 'TransportMJPEG|FrameEncodeScatter' -benchtime=1x -count=1 -run xxx .

# bench-obs is the observability smoke gate (also run by ci.sh): one run of
# the figure 9/10 workloads under each observability setting (off, metrics,
# full tracing), plus the allocation test pinning the tracing-off dispatch
# path at zero allocs — enough to catch instrumentation leaking into the
# fast path.
bench-obs:
	$(GO) test -bench 'ObsOverhead' -benchtime=1x -count=1 -run xxx .
	$(GO) test -run DispatchTracingOffAllocFree -count=1 ./internal/runtime/

# bench-lang is the kernel-language back-end smoke gate (also run by ci.sh):
# one iteration of each kernel body under the closure interpreter, the
# register-bytecode VM, and the native Go baseline — enough to catch lowering
# fallbacks or VM crashes on the benchmark kernels.
bench-lang:
	$(GO) test -bench 'Lang(MulSum|KMeans|Wavefront)' -benchtime=1x -count=1 -run xxx .

# bench-full is the measurement run over the whole benchmark suite.
bench-full:
	$(GO) test -bench=. -benchmem .

# bench-json runs the scheduler A/B benchmarks and emits BENCH_scheduler.json.
bench-json:
	scripts/bench_json.sh

clean:
	$(GO) clean ./...
