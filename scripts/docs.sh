#!/bin/sh
# Design-document gate (`make docs`, also run by ci.sh): DESIGN.md describes
# the current system, not its history, and stays small enough to read. It
# fails when DESIGN.md exceeds 50 000 bytes or names a pull request
# ("PR 12", "PRs 3").
set -eu
cd "$(dirname "$0")/.."
limit=50000
size=$(wc -c < DESIGN.md)
if [ "$size" -gt "$limit" ]; then
	echo "DESIGN.md is $size bytes, over the $limit-byte limit" >&2
	exit 1
fi
if grep -nE '\bPRs? ?[0-9]+' DESIGN.md >&2; then
	echo "DESIGN.md names pull requests (above); describe the system instead" >&2
	exit 1
fi
