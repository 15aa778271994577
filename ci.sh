#!/bin/sh
# Tier-1 verification gate. Every step is a Makefile target, defined there
# once with a comment on what it checks:
#   ci           formatting, vet, layering, retired identifiers, the
#                design-document gate, build, one run of every example, the
#                full test suite under the race detector and the allocation
#                pins without it
#   test-fault   the failover, liveness and teardown tests under -race
#   fuzz-lang    ten seconds each of the kernel-language fuzz targets
#   fuzz-wire    ten seconds each of the peer-bytes decoder fuzz targets
#   bench-smoke  the nested benchmark-ledger module's test under -race; it
#                changes nothing under bench/
#   bench        every testing.B target of every package once
set -eu
cd "$(dirname "$0")"
make ci test-fault fuzz-lang fuzz-wire bench-smoke bench
