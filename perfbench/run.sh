#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload offline --seed 1 --seconds 12 --trace 0
#
# Every build artefact (binary, Go build cache, span files) stays under
# .bench_build/ in the current directory. The last line of standard
# output is the JSON result; progress goes to standard error.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export CGO_ENABLED=0
# Outside a git checkout the commit is unknown; git must not report the
# commit of a repository that merely contains this directory.
PERFBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
