#!/usr/bin/env bash
# Builds the benchmark and dssmemd from the checkout's source into
# .bench_build, then runs one workload:
#
#   bash perfbench/run.sh --workload paper_all --seed 12345 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off

# The source identity stamped on results when the checkout is not a git
# repository: a hash over every Go source and module file.
(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1) >"$out/source.sha256"

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/dssmemd" repro/cmd/dssmemd)
exec "$out/perfbench" "$@"
