#!/bin/sh
# Code placement of the benchmark ledger's binary (`make placement`): the
# address of each function whose alignment is known to move ledger numbers,
# and that address mod 64. The K-means workloads' clock is the sequential
# reference kmeans.Sequential, which runs measurably faster 32 bytes off a
# 64-byte boundary than on one, so two builds compare only when their classes
# here agree. The other watched functions are the hot loops of the measured
# side: the MJPEG DCT and the kernel language's lane VM (the bodies of
# mjpeg_batch and kmeans_vm), K-means' native assign and refine bodies
# (kmeans.AssignFlat, kmeans.RefineFlat), and the runtime's per-slice and
# per-instance dispatch path (execSlice, storeInst, flushStaged), where a
# 32-byte move with identical slices has read as a 2-3 % move of kmeans_vm.
# Changes nothing.
#
#   scripts/placement.sh           the binary `bash bench/run.sh` builds
#   scripts/placement.sh BIN       that binary
#   scripts/placement.sh A B       both builds, then exit 1 when any function's
#                                  class mod 64 differs between them
#
# A build is a binary or a checkout holding .bench_build/p2g-bench.
set -eu

# binary resolves a build argument to its binary.
binary() {
	if [ -d "$1" ]; then
		echo "$1/.bench_build/p2g-bench"
	else
		echo "$1"
	fi
}

# classes prints "function address mod64" for each watched function of $1.
classes() {
	if [ ! -f "$1" ]; then
		echo "placement: no $1; build it with a ledger run, e.g." >&2
		echo "  bash bench/run.sh --workload kmeans_native --seconds 1 --trace 0" >&2
		exit 1
	fi
	go tool nm -n "$1" | awk '
		BEGIN {
			want["repro/internal/kmeans.Sequential"] = 1
			want["repro/internal/mjpeg.DCTNaive"] = 1
			want["repro/internal/lang.(*laneVM).run"] = 1
			want["repro/internal/kmeans.AssignFlat"] = 1
			want["repro/internal/kmeans.RefineFlat"] = 1
			want["repro/internal/runtime.(*Node).execSlice"] = 1
			want["repro/internal/runtime.(*Node).storeInst"] = 1
			want["repro/internal/runtime.(*Node).flushStaged"] = 1
			for (f in want) n++
		}
		($3 in want) {
			addr = 0
			for (i = 1; i <= length($1); i++)
				addr = addr * 16 + index("0123456789abcdef", tolower(substr($1, i, 1))) - 1
			print $3, "0x" $1, addr % 64
			found++
		}
		END { if (found != n) { print "placement: " n - found " of the functions not found" > "/dev/stderr"; exit 1 } }'
}

case $# in
0)
	cd "$(dirname "$0")/.."
	set -- .bench_build/p2g-bench
	;;
1 | 2) ;;
*)
	echo "usage: $0 [BUILD [BUILD]]" >&2
	exit 2
	;;
esac

if [ $# -eq 1 ]; then
	out=$(classes "$(binary "$1")")
	printf '%-44s %10s %7s\n' function address "mod 64"
	echo "$out" | awk '{ printf "%-44s %10s %7d\n", $1, $2, $3 }'
	exit 0
fi

a=$(classes "$(binary "$1")")
b=$(classes "$(binary "$2")")
printf '%-44s %10s %7s %10s %7s\n' function "A address" "mod 64" "B address" "mod 64"
printf '%s\n%s\n' "$a" "$b" | awk -v n="$(echo "$a" | wc -l)" '
	NR <= n { addr[$1] = $2; class[$1] = $3; order[NR] = $1; next }
	{
		differ = class[$1] != $3
		bad += differ
		printf "%-44s %10s %7d %10s %7d%s\n", $1, addr[$1], class[$1], $2, $3, differ ? "  differs" : ""
	}
	END { exit bad > 0 }' || {
	echo "placement: the builds differ in layout; their K-means numbers do not compare" >&2
	exit 1
}
