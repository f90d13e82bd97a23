#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it. Run from the
# repository root:
#
#   bash wallbench/run.sh --workload gcn_train --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build
# in the current directory (Go build cache included), so a run reads and
# writes nothing outside the checkout. The build fails, and no result is
# printed, when the gopim module is not beside the benchmark.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" GOENV=off GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/wallbench" && go build -o "$out/wallbench" .)
exec "$out/wallbench" "$@"
