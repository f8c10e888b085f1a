#!/usr/bin/env bash
# Builds the benchmark and the dataspreadd daemon from this checkout's
# sources, then runs one workload:
#
#   bash _perfbench/run.sh --workload wire-oltp --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in the current directory; the last line of standard output is
# the JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "run.sh: $root does not hold the dataspread sources" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# go build caches by content, so only the first run in a checkout compiles.
go build -C "$root/_perfbench" -o "$out/perfbench" .
go build -C "$root/_perfbench" -o "$out/dataspreadd" github.com/dataspread/dataspread/cmd/dataspreadd

# The checkout may not be a git repository, so the source tree is also
# identified by a hash of its Go sources.
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)
src=$(cd "$root" && find . -name '*.go' -not -path './.bench_build/*' | LC_ALL=C sort | xargs cat go.mod | sha256sum | cut -c1-16)
exec "$out/perfbench" -daemon "$out/dataspreadd" -work "$out" -source "commit $commit, sources $src" "$@"
