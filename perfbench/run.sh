#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload batch-file --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write stays under .bench_build (or $CARGO_TARGET_DIR when set): the Go
# build cache, temporary files, generated inputs, server staging and the
# span dumps of traced runs.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
