#!/bin/sh
# Builds ftserve and the benchmark from the checkout this script sits in, then
# runs the benchmark with the given arguments:
#
#	sh perfbench/run.sh --workload serve-small --seed 1 --seconds 40 --trace 0
#
# Build outputs and the Go build cache live in .bench_build at the checkout
# root, so a run reads and writes nothing outside the checkout.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/ftserve ]; then
	echo "perfbench: $(pwd) is not a fattree checkout (no go.mod or cmd/ftserve)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/ftserve" ./cmd/ftserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ftserve "$out/ftserve" "$@"
