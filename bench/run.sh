#!/usr/bin/env bash
# Builds hennbench from source inside the checkout and replaces this shell
# with it: no child process outlives the run.
set -euo pipefail
cd "$(dirname "$0")"
export GOCACHE="$PWD/out/gocache" GOMODCACHE="$PWD/out/gomodcache" GOTOOLCHAIN=local GOWORK=off
mkdir -p out
go build -o out/hennbench .
cd ..
exec bench/out/hennbench "$@"
