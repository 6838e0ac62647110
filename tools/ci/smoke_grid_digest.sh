#!/usr/bin/env bash
# Grid-digest smoke (the CI step on every matrix leg; run locally against
# any build dir): the default 48-cell analytic sweep at --threads 1 must
# print, at seeds 1 and 4242, exactly the bytes whose sha256 the benchmark
# stores in perfbench/expected.json.  This holds the explorer's output to
# those bytes on every compiler and build type.  The digest file is only
# read; a change meant to alter the sweep's output re-records it with
# `python3 perfbench/run.py --record-digests`.
#
# usage: tools/ci/smoke_grid_digest.sh [build-dir]   (default: build)
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/../.." && pwd)
BUILD_DIR=$(cd "${1:-build}" && pwd)
SEGA="$BUILD_DIR/sega_dcim"
EXPECTED="$ROOT/perfbench/expected.json"
if [ ! -x "$SEGA" ]; then
  echo "error: $SEGA not found or not executable (build the repo first)" >&2
  exit 2
fi
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

for seed in 1 4242; do
  want=$(python3 -c \
    'import json, sys; print(json.load(open(sys.argv[1]))["grid_sweep"][sys.argv[2]])' \
    "$EXPECTED" "$seed")
  "$SEGA" sweep --no-daemon --threads 1 --seed "$seed" > "sweep-$seed.csv"
  got=$(sha256sum "sweep-$seed.csv" | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "error: seed $seed sweep output sha256 $got, expected $want" >&2
    exit 1
  fi
  echo "seed $seed: sweep output matches its stored digest"
done
echo "OK: default grid sweep is byte-identical to perfbench/expected.json"
