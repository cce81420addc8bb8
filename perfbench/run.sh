#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve_cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# span files all go under .bench_build/ there, and nothing is written
# outside the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found in $root)" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
