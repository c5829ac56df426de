#!/usr/bin/env bash
# Builds smore-serve and the benchmark driver from this checkout, then runs
# the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload predict-single --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root of the
# checkout, including the Go build cache.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/bin" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
cd "$here"
go build -o "$out/bin/smore-serve" go-arxiv/smore/cmd/smore-serve
go build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --serve-bin "$out/bin/smore-serve" --work "$out/work" "$@"
