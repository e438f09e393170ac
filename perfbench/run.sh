#!/usr/bin/env bash
# Builds tetrisd and the benchmark program from this checkout's sources and
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload read-prepared --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch data all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/tetrisd ]; then
	echo "perfbench: run from the repository root; no go.mod or cmd/tetrisd here" >&2
	exit 1
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config/go/telemetry"

# Keep the toolchain's caches and config inside the checkout, and never
# reach for the network: the build needs nothing outside the repository.
# Telemetry is switched off in that config: otherwise the go command
# forks a sidecar process that outlives the build.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -o "$out/tetrisd" ./cmd/tetrisd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -tetrisd "$out/tetrisd" -work "$out" "$@"
