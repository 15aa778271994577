#!/bin/sh
# Layering check (`make layers`, also run by ci.sh): asserts the package DAG
# the design relies on, from each package's non-test imports.
#
#   field, obs, deadline, video, kmeans, sift   import no package of this module
#   core     imports at most  deadline field
#   runtime  imports at most  core deadline field obs   (so never dist, sched, lang)
#   lang     imports at most  core field
#   nothing under internal/ imports cmd/, examples/ or the root facade
#   no package, test or not, depends on encoding/gob: field data crosses
#                    nodes in field's codec, messages in internal/dist's
set -eu
cd "$(dirname "$0")/.."
if go list -deps -test ./... | grep -qx encoding/gob; then
	echo "layering: encoding/gob is a dependency of the module (go list -deps -test ./...)" >&2
	exit 1
fi
deps=$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./...)
printf '%s\n' "$deps" | awk '
BEGIN {
	in_ = "repro/internal/"
	split("field obs deadline video kmeans sift", leaves, " ")
	for (i in leaves) allow[leaves[i]] = ""
	allow["core"] = "deadline field"
	allow["runtime"] = "core deadline field obs"
	allow["lang"] = "core field"
}
index($1, in_) == 1 {
	pkg = substr($1, length(in_) + 1)
	for (i = 2; i <= NF; i++) {
		if ($i == "repro" || index($i, "repro/cmd/") == 1 || index($i, "repro/examples/") == 1) {
			printf "layering: %s imports %s; internal packages must not depend on the tools or the facade\n", $1, $i
			bad = 1
		}
		if (pkg in allow && index($i, "repro/") == 1) {
			dep = substr($i, length(in_) + 1)
			if (index($i, in_) != 1 || index(" " allow[pkg] " ", " " dep " ") == 0) {
				printf "layering: %s imports %s; allowed: %s\n", $1, $i, (allow[pkg] == "" ? "nothing from this module" : allow[pkg])
				bad = 1
			}
		}
	}
}
END { exit bad }
'
