#!/usr/bin/env bash
# Builds the phasemark benchmark from source and runs it with the given
# arguments. Run from the root of a phasemark checkout:
#
#   bash phasebench/run.sh --workload marker_xinput --seed 1 --seconds 20 --trace 0
#
# Build products and the Go build cache live under .bench_build/ in the
# checkout, so nothing outside it is written.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$out/phasebench" .) >&2
exec "$out/phasebench" "$@"
