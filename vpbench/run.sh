#!/usr/bin/env bash
# Builds and runs the repository benchmark (see vpbench/README.md):
#
#   bash vpbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build cache, the binary and the
# traced runs' trace files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" GOENV=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/vpbench" && go build -o "$build/vpbench" .)
exec "$build/vpbench" "$@"
