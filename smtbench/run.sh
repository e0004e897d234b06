#!/usr/bin/env bash
# Builds the smtflex benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash smtbench/run.sh --workload campaign_cold --seed 1 --seconds 20 --trace 0
#
# Every build artifact and Go cache lands under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOPROXY=off
export GOFLAGS=
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go -C "$root/smtbench" build -o "$build/smtbench" . >&2
exec "$build/smtbench" "$@"
