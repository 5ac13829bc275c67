#!/usr/bin/env bash
# Builds the benchmark (package main in bench/, a module of its own that
# imports the repro module next to it) and runs it from the repository
# root with the given arguments. Everything written — Go's build cache,
# the binary, the traced pass's scratch data — stays inside the checkout,
# under .bench_build/ and bench/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ]; then
	echo "bench: $root holds no go.mod: the benchmark builds against the repro module around it" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
go -C "$here" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
