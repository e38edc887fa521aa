#!/usr/bin/env bash
# Builds perfbench from the surrounding checkout and runs it, passing every
# argument through (see main.go for the flags). All build state lives in
# .bench_build at the checkout root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
# XDG_* keep the go command's own config and telemetry files in the
# checkout as well.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
