#!/bin/sh
# Builds the serving benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload read-paged --seed 1 --seconds 50 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, database directories, span files) stays under
# .bench_build/ in the current directory.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# under .bench_build/ as well.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
