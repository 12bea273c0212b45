#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes
# stays inside the checkout: the binary and Go's build cache under
# .bench_build/, traces under bench/out/.
#
#   bench/run.sh --workload <name> --seed <n> [--seconds 14] [--trace 0|1] [--scale smoke] [--out runs.jsonl]
#   bench/run.sh --selfcheck [--runs 5] [--seeds 29,1031] [--out bench/NOISE.md]
#   bench/run.sh --compare a.jsonl b.jsonl
#   bench/run.sh --describe
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
# bench/ is a module of its own that replaces the repository's module
# with "../": without the repository around it the build fails, and so
# does this script, before anything is measured.
(cd "$here" && go build -o "$build/sbon-bench" .)

SBON_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SBON_BENCH_COMMIT
cd "$root"
exec "$build/sbon-bench" "$@"
