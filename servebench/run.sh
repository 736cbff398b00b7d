#!/usr/bin/env bash
# Builds the servebench binary from this checkout and runs it with the
# given arguments, e.g.
#
#   bash servebench/run.sh --workload ingest --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build products, the Go build cache and
# the benchmark's data directories all live under .bench_build/ in the
# current directory, so nothing is written outside the checkout. Build
# output goes to stderr; only the benchmark writes to stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"

if ! (cd "$here" && go build -o "$out/bin/servebench" .) 1>&2; then
	echo "servebench: build failed" >&2
	exit 1
fi
exec "$out/bin/servebench" -workdir "$out/servebench" "$@"
