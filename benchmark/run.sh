#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the given arguments. Everything the build
# writes (binary, build cache) stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$here"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/pran-benchmark" .
)

cd "$root"
exec "$build/pran-benchmark" "$@"
