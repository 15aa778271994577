#!/usr/bin/env bash
# Records one set of runs into a ledger file for `run.sh --compare`: every
# workload once per seed, each run its own process, exactly as a driver would
# start them.
#
#	bash bench/record.sh bench/baseline/a.json           # seeds 1..10, 20 s
#	bash bench/record.sh /tmp/quick.json 3 5              # seeds 1..3, 5 s
set -euo pipefail
here=$(dirname "${BASH_SOURCE[0]}")
ledger=${1:?usage: record.sh LEDGER [RUNS [SECONDS [FIRST_SEED]]]}
runs=${2:-10}
seconds=${3:-20}
first=${4:-1}

for seed in $(seq "$first" $((first + runs - 1))); do
	for workload in mjpeg_batch mjpeg_live kmeans_native kmeans_vm mjpeg_tcp2; do
		bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --ledger "$ledger" | tail -1
	done
done
