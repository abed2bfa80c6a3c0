#!/usr/bin/env bash
# BENCHMARK.json's command: build the ledger from source inside the
# checkout, then run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
# Everything the Go toolchain writes (build cache, module cache,
# telemetry) is pointed into .bench_build, so the benchmark reads and
# writes only inside its checkout.
set -euo pipefail
root=$PWD
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
# The go command's telemetry starts a detached child process the first
# time it sees a fresh config directory, and does not wait for it. With
# the mode file saying off it starts none, so no process outlives a run.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/crossbench" ./bench
exec "$build/crossbench" "$@"
