#!/bin/sh
# Code placement of the benchmark ledger's binary (`make placement`): the
# address of each function whose alignment is known to move ledger numbers,
# and that address mod 64. The K-means workloads' clock is the sequential
# reference kmeans.Sequential, which runs measurably faster 32 bytes off a
# 64-byte boundary than on one, so two builds compare only when their classes
# here agree. Reads the binary `bash bench/run.sh` builds, or the one given
# as the argument, and changes nothing.
set -eu
bin=${1:-}
if [ -z "$bin" ]; then
	cd "$(dirname "$0")/.."
	bin=.bench_build/p2g-bench
fi
if [ ! -f "$bin" ]; then
	echo "placement: no $bin; build it with a ledger run, e.g." >&2
	echo "  bash bench/run.sh --workload kmeans_native --seconds 1 --trace 0" >&2
	exit 1
fi
go tool nm -n "$bin" | awk '
	BEGIN {
		want["repro/internal/kmeans.Sequential"] = 1
		want["repro/internal/mjpeg.DCTNaive"] = 1
		want["repro/internal/lang.(*laneVM).run"] = 1
		printf "%-40s %10s %7s\n", "function", "address", "mod 64"
	}
	($3 in want) {
		addr = 0
		for (i = 1; i <= length($1); i++)
			addr = addr * 16 + index("0123456789abcdef", tolower(substr($1, i, 1))) - 1
		printf "%-40s %10s %7d\n", $3, "0x" $1, addr % 64
		found++
	}
	END { if (found != 3) { print "placement: " 3 - found " of the functions not found" > "/dev/stderr"; exit 1 } }'
