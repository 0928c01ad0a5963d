#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload smallfile --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build cache, binary and span dumps go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

# Fall back to the official distribution's default install location
# when go is not on PATH (a minimal environment).
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath \
	GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOENV=off \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0 \
	PERFBENCH_OUT=$out

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
