#!/usr/bin/env bash
# Builds lockd and the benchmark from the source tree this script sits
# in, then runs one benchmark workload. Run it from the repository root:
#
#   bash lockbench/run.sh --workload lockd-migrate --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the runs' scratch space live in
# .bench_build at the root (CARGO_TARGET_DIR, when set, names that
# directory instead), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
if [[ ! -f go.mod || ! -d cmd/lockd ]]; then
	echo "lockbench: run from the repository root (no go.mod or cmd/lockd here)" >&2
	exit 1
fi
mkdir -p "$out"
# The go command's caches and config files stay under $out. Telemetry is
# turned off there: otherwise the go command forks a detached upload
# process that can outlive this script.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/lockd" ./cmd/lockd >&2
(cd "$bench" && go build -o "$out/lockbench" .) >&2
exec "$out/lockbench" -lockd "$out/lockd" -repo "$root" -workdir "$out/run-$$" "$@"
