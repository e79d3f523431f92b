#!/bin/sh
# Repo check: build, tests, lint and the bench smoke (every experiment
# at 1/32 scale).  The tests include the fresh full-scale E13-E18, E20
# and E21 records (bench/dune): a record that differs from its
# committed BENCH_*.json fails with the diff, a missed gate fails the
# run, and `dune promote` accepts an intended change.
# Usage: bin/check.sh  (or `make check`)
set -eu
cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== catenet-lint"
make --no-print-directory lint

echo "== bench smoke"
dune exec bench/main.exe -- --smoke --out=_smoke >/dev/null

echo "check: OK"
