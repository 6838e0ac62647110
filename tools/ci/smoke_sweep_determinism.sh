#!/usr/bin/env bash
# Sweep determinism smoke (the CI step; run locally against any build dir):
# the §IV validation grid swept serial, parallel, checkpointed, resumed,
# and memo-cached — every variant must emit a byte-identical CSV, because
# thread count, checkpoint temperature, and cache temperature are all
# non-result-affecting by design.
#
# usage: tools/ci/smoke_sweep_determinism.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR=$(cd "${1:-build}" && pwd)
SEGA="$BUILD_DIR/sega_dcim"
if [ ! -x "$SEGA" ]; then
  echo "error: $SEGA not found or not executable (build the repo first)" >&2
  exit 2
fi
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

GRID=(--wstores 4096,8192 --precisions INT8,BF16
      --population 24 --generations 12 --seed 2)

"$SEGA" sweep "${GRID[@]}" --threads 1 > serial.csv
"$SEGA" sweep "${GRID[@]}" --threads 8 \
  --checkpoint sweep.ckpt.jsonl > parallel.csv
cmp serial.csv parallel.csv

# Resume over the complete checkpoint: recomputes nothing, byte-identical
# output.
"$SEGA" sweep "${GRID[@]}" --threads 8 \
  --checkpoint sweep.ckpt.jsonl > resumed.csv
cmp serial.csv resumed.csv

# Coverage report without running anything.
"$SEGA" sweep --resume-summary --checkpoint sweep.ckpt.jsonl "${GRID[@]}" \
  | grep -q "4/4 cells complete"

# Persistent cost-cache memo: cold run writes it, warm run skips every
# evaluation — both byte-identical to the serial reference.
"$SEGA" sweep "${GRID[@]}" --threads 8 \
  --cache-file cost.memo.jsonl > cached_cold.csv
cmp serial.csv cached_cold.csv
"$SEGA" sweep "${GRID[@]}" --threads 8 \
  --cache-file cost.memo.jsonl > cached_warm.csv
cmp serial.csv cached_warm.csv

echo "OK: sweep determinism smoke"
