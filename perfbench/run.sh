#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every
# argument is passed on (see main.go for the flags). The Go build cache,
# temporary files and the binary all stay under .bench_build at the root
# of the checkout. Build output goes to standard error, so the last line
# of standard output is the benchmark's JSON result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
