#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash scenbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every Go cache and temporary file, the binary and the traced run's outputs
# stay under the build directory ($CARGO_TARGET_DIR if set, else
# .bench_build), so the benchmark reads and writes nothing outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd scenbench && go build -o "$build/scenbench" .)
exec "$build/scenbench" --out "$build/trace" "$@"
