#!/usr/bin/env bash
# Builds the benchmark and the mhsd daemon from the checkout it is run in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload paper-n100 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binaries, traced-run span files) goes under $CARGO_TARGET_DIR, or
# .bench_build when that is unset.
set -euo pipefail
root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -buildvcs=false -o "$out/perfbench" .
go build -buildvcs=false -o "$out/mhsd" octopus/cmd/mhsd
cd "$root"
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --mhsd "$out/mhsd" --out "$out" --commit "$commit" "$@"
