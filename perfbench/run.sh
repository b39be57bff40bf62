#!/usr/bin/env bash
# Builds the benchmark from the surrounding source tree and runs it.
#
#   bash perfbench/run.sh --workload stream-mem --seed 1 --seconds 45 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# phases' scratch files all live under .bench_build/, so a run reads and
# writes nothing outside the checkout except the Go toolchain itself.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
