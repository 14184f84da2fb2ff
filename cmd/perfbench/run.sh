#!/usr/bin/env bash
# Builds the CAIS simulator benchmark from source and runs it.
#
#   bash cmd/perfbench/run.sh --workload inswitch-sublayers --seed 1 --seconds 25 --trace 0
#   bash cmd/perfbench/run.sh --compare DIR_A DIR_B
#
# Run it from the repository root. The Go build cache, the binary and the
# result files all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep every file the go command writes (build cache, module cache, its
# config and telemetry) inside the checkout, and never fetch a toolchain.
(
	cd "$src"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0 \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" -golden "$src/golden.json" "$@"
