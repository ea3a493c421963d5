#!/usr/bin/env bash
# Builds the real-path benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash realbench/run.sh --workload put --seed 1 --seconds 10 --trace 0
#   bash realbench/run.sh --workload all --seconds 10 --trace 1
#
# With --workload all (or none) every workload runs in a process of its own,
# one after another, so that process-wide figures such as peak RSS belong to
# one workload; each prints its own JSON summary, and the first failure
# stops the rest.
#
# Run it from the repository root. The build (Go build cache, binary) and
# the run's span dumps stay under .bench_build/ in the current directory;
# replica data goes to a temporary directory on /dev/shm when it is
# writable (see README.md), removed when the run exits.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

(cd "$here" && go build -o "$out/realbench" .) >&2

workload=all
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	-workload | --workload) workload="${args[i + 1]:-}" ;;
	-workload=* | --workload=*) workload="${args[i]#*=}" ;;
	esac
done
if [[ $workload != all ]]; then
	exec "$out/realbench" -out "$out" "$@"
fi
for w in put read-mostly failover; do
	# The last -workload given wins.
	"$out/realbench" -out "$out" "$@" -workload "$w"
done
