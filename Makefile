GO ?= go

.PHONY: all build examples test race norace layers retired docs loc placement vet fmt-check ci test-fault fuzz-lang fuzz-wire bench-smoke bench bench-full clean

all: build

build:
	$(GO) build ./...

# examples runs each of the seven examples once to completion (well under a
# second each); examples/distributed and examples/kmeans exit 1 when their
# centroids differ from the sequential baseline (examples/distributed also
# when the master or any node fails), examples/mjpeg when its bitstream
# differs from the single-threaded encoder's.
examples:
	@for e in examples/*/; do $(GO) run "./$$e" >/dev/null || exit 1; done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# norace re-runs the packages whose allocation pins (zero-alloc dispatch, slab
# and frame pool reuse, a warm slice body, program validation) skip
# themselves under the race detector, which allocates on its own.
norace:
	$(GO) test -count=1 ./internal/core/ ./internal/field/ ./internal/runtime/ ./internal/dist/ ./internal/lang/

# layers asserts the package DAG (see the script's header for the rules).
layers:
	scripts/layers.sh

# retired fails when an identifier a simplification deleted reappears in the
# non-test Go outside bench/ (the list is in the script's header).
retired:
	scripts/retired.sh

# docs fails when DESIGN.md exceeds 50 000 bytes or names a pull request
# (the rule is in the script's header).
docs:
	scripts/docs.sh

# loc prints the size of the system: lines of non-test Go outside bench/.
loc:
	@scripts/loc.sh

# placement prints where the benchmark ledger's binary (.bench_build/p2g-bench,
# built by bash bench/run.sh) put the functions whose alignment moves ledger
# numbers, and each address mod 64: compare two builds only when they agree.
placement:
	@scripts/placement.sh

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# ci is the tier-1 gate: formatting, static checks, layering, retired
# identifiers, the design-document gate, build, one run of every example, the
# full test suite under the race detector and the allocation pins without it.
ci: fmt-check vet layers retired docs build examples race norace

# test-fault is the fault-injection gate (also run by ci.sh): the failover,
# liveness, and teardown regression tests under the race detector — each
# builds its cluster with internal/dist's test harness and puts a FaultConn
# (severed, wedged, or silently dropping connections) on one end of a node's
# connection: a silent worker, registrant or master, at the zero configs, and
# TestFailoverSeverSweep severs a worker at every send a clean run makes —
# and the index-share split's ownership, bit-identity and pacing tests beside
# them.
test-fault:
	$(GO) test -race -count=1 -run 'Failover|Liveness|IdleTimeout|Standby|BroadcastsStop|AbortReleases|SendFailureTeardown|ShareOwnership|SplitKernelsBitIdentical|StoppedWorker|ReplayTargetDeath' ./internal/dist/

# fuzz-lang is the kernel-language fuzz gate (also run by ci.sh): ten seconds
# each of FuzzParse (lexer, parser and compiler never panic, and nothing
# crashes the lowering) and FuzzVMMatchesOracle (the bytecode VM and the
# test-only tree-walking oracle agree on any program the compiler accepts),
# seeded from testdata/*.p2g. Minimization is off: shrinking one new
# 3 KB input would otherwise eat the whole budget.
fuzz-lang:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s -fuzzminimizetime=0 ./internal/lang/
	$(GO) test -run '^$$' -fuzz '^FuzzVMMatchesOracle$$' -fuzztime=10s -fuzzminimizetime=0 ./internal/lang/

# fuzz-wire is the decoder fuzz gate for the bytes a peer sends (also run by
# ci.sh): ten seconds each of FuzzDecodeWireValue (field.DecodeWireValue),
# FuzzDecodeStoreFrame (runtime.DecodeStoreFrame), FuzzDecodeEnvelope (one
# message of any kind, with a store frame's raw payload) and FuzzTCPRecv (a
# whole TCP stream). Decoding never panics, whatever decodes re-encodes to
# bytes that decode to the same result, and each of the four costs memory in
# proportion to the bytes it reads: at most 64 bytes per wire byte, plus
# 1 MiB (the most by which a frame's buffer may run ahead of its bytes).
fuzz-wire:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWireValue$$' -fuzztime=10s -fuzzminimizetime=0 ./internal/field/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStoreFrame$$' -fuzztime=10s -fuzzminimizetime=0 ./internal/runtime/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime=10s -fuzzminimizetime=0 ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzTCPRecv$$' -fuzztime=10s -fuzzminimizetime=0 ./internal/dist/

# bench-smoke is the benchmark-ledger smoke gate (also run by ci.sh): bench/
# is a nested module (repro/bench) that `go test ./...` does not reach. Its
# test drives every ledger workload for a few seconds against the sequential
# oracle, under the race detector. The target only invokes the ledger; it
# changes nothing under bench/.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test -race -count=2 .

# bench is the benchmark crash gate (also run by ci.sh): every testing.B target
# of every package once — the root suite, internal/dist's transport benchmarks
# on the cluster harness, internal/lang's slice bodies, internal/runtime's
# dispatch — so they keep compiling and running. Measurement is the ledger's
# job (bench/); bench-full is the long form of the root suite.
bench:
	$(GO) test -run xxx -bench . -benchtime=1x ./...

# bench-full is the measurement run over the whole benchmark suite.
bench-full:
	$(GO) test -bench=. -benchmem .

clean:
	$(GO) clean ./...
