#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build and run
# artifact under .bench_build/ at the root of the checkout it is run from.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the JSON result; the build reports on
# standard error. Outside a full checkout (no repository module beside this
# directory) the build fails and the script exits non-zero.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build" "$@"
