#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload mixed --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build and module caches, temp files,
# Go telemetry) stays under .bench_build/ in the checkout. In a tree
# without the repository's sources the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"

export GOTOOLCHAIN=local GOFLAGS= GOENV=off GO111MODULE=on GOPROXY=off GOSUMDB=off \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
