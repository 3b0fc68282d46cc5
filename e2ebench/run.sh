#!/usr/bin/env bash
# Builds the benchmark and caesar-serve from source and runs one workload:
#
#   bash e2ebench/run.sh --workload replay-backbone --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/ under the current directory: the Go build cache, the two
# binaries, and each run's artifacts (.bench_build/out/<workload>-seed<n>-trace<t>/).
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/bin" "$build/out"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

# go build leaves a binary untouched when its build ID already matches the
# sources, so building on every run costs a cache check, not a relink.
(
	cd "$root/e2ebench"
	go build -o "$build/bin/e2ebench" .
	go build -o "$build/bin/caesar-serve" github.com/caesar-sketch/caesar/cmd/caesar-serve
) >&2

exec "$build/bin/e2ebench" -serve-bin "$build/bin/caesar-serve" -out "$build/out" "$@"
