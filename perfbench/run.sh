#!/usr/bin/env bash
# Builds perfbench and mmserve from the checkout's sources and runs one
# benchmark workload. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# working directory, including the Go build cache and the go command's
# configuration and telemetry files. The build needs no module download.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root/perfbench"
go build -o "$build/perfbench" .
go build -o "$build/mmserve" kdrsolvers/cmd/mmserve
cd "$root"
exec "$build/perfbench" --mmserve "$build/mmserve" --workdir "$build" "$@"
