#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
# Everything the build and the run write (Go build cache, temporary files,
# binary, generated inputs) stays under .bench_build/ at the repository root.
#
#   bash perfbench/run.sh --workload oneshot --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -workdir "$out/work" "$@"
