#!/usr/bin/env bash
# Builds the simulator-cost benchmark from the checkout's sources and runs it.
# Everything the Go toolchain writes (build cache, binary, telemetry) stays
# under .bench_build/ in the checkout.
#
#   bash simcost/run.sh --workload casestudy --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/simcost"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/simcost" && go build -o "$out/simcost" .) >&2
exec "$out/simcost" "$@"
