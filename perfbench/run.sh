#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it with
# the given arguments. Everything the build writes (binary, Go build cache)
# goes to .bench_build/ at the checkout root; nothing is fetched.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 5 --workload serve-cold --seconds 20
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
BENCH_COMMIT="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)"
export BENCH_COMMIT
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
