#!/usr/bin/env bash
# Builds the harness from source inside the checkout — the Go build cache
# included, so nothing is written outside it — and runs it with the given
# arguments.  A checkout without the repo's own go.mod fails here, before
# any result is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/layoutbench" .) >&2
export LAYOUTBENCH_ROOT="$root"
exec "$build/layoutbench" "$@"
