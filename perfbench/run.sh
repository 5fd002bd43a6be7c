#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# --trace 0 runs the gated end-to-end command (this directory's main
# package, public API only); --trace 1 runs the traced command in ./traced,
# which calls the internal layers. Build outputs and the Go build cache live
# under .bench_build in the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTELEMETRY=off \
	GOTELEMETRYDIR="$build/telemetry" GOTOOLCHAIN=local GOFLAGS=
pkg=.
bin="$build/perfbench"
prev=""
for a in "$@"; do
	if [[ "$a" == "--trace=1" || ("$prev" == "--trace" && "$a" == "1") ]]; then
		pkg=./traced
		bin="$build/perfbench-traced"
	fi
	prev="$a"
done
mkdir -p "$build"
go build -C "$root/perfbench" -o "$bin" "$pkg"
cd "$root"
exec "$bin" "$@"
