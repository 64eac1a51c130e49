#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload direct --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (binary, Go build cache, the
# serve workload's op log, span files) stays under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
