#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout it is run in, then
# runs it. Run from the repository root:
#
#   bash wallbench/run.sh --workload stream-64m --seed 1 --seconds 10 --trace 0
#
# Every build product and cache stays under .bench_build in the root.
# madvdontneed=0 lets the Go runtime return freed heap with MADV_FREE:
# each trial frees a whole deployment, and with MADV_DONTNEED the next
# trial would re-fault hundreds of MiB, timing the host's page-fault
# path instead of the service.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C wallbench build -o "$out/wallbench" .
GODEBUG=madvdontneed=0 exec "$out/wallbench" "$@"
