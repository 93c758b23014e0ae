#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it:
#
#   bash benchmark/run.sh --workload <fleet-100k|kv-storm|ctl-flood> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Everything the build and the run
# write (Go build cache, binary, scratch files, span logs) stays under
# .bench_build/ in the checkout. The benchmark module links the library
# through `replace repro => ../`, so outside a full checkout the build
# fails and the script exits nonzero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$here/../.bench_build"
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
