#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh compare <runs-dir-A> <runs-dir-B>
# Every build artefact, the Go build cache included, stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home"
bin="$out/perfbench"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$bin" .
) >&2
cd "$root"
exec "$bin" "$@"
