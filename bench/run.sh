#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from there with the arguments given. Everything the build and
# the run write (Go build cache, binary, shard sockets) stays under
# .bench_build/, which .gitignore names.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
