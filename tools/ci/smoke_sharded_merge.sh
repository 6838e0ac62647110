#!/usr/bin/env bash
# Sharded-sweep smoke (the CI step; run locally against any build dir):
# per-shard worker invocations plus the checkpoint merge, the supervised
# local fleet (orchestrate), and the multi-host launch template must all
# reproduce the unsharded serial CSV byte-for-byte.
#
# usage: tools/ci/smoke_sharded_merge.sh [build-dir]   (default: build)
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/../.." && pwd)
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

# Two worker invocations over disjoint grid slices, each with its own
# checkpoint/memo shard and different thread counts...
"$SEGA" sweep "${GRID[@]}" --threads 4 --shard 0/2 \
  --checkpoint shard.ckpt.jsonl --cache-file shard.memo.jsonl > /dev/null
"$SEGA" sweep "${GRID[@]}" --threads 8 --shard 1/2 \
  --checkpoint shard.ckpt.jsonl --cache-file shard.memo.jsonl > /dev/null
# ...merged back: byte-identical to the 1-process reference.
"$SEGA" sweep-merge "${GRID[@]}" --shards 2 \
  --checkpoint shard.ckpt.jsonl --cache-file shard.memo.jsonl > sharded.csv
cmp serial.csv sharded.csv

# The merged unified memo replays the grid with zero evaluations (output
# identical); the unified checkpoint resumes unsharded.
"$SEGA" sweep "${GRID[@]}" --threads 8 \
  --checkpoint shard.ckpt.jsonl --cache-file shard.memo.jsonl > unified.csv
cmp serial.csv unified.csv

# memo-compact folds the base memo plus shard deltas into one deduplicated
# file — byte-identical to the unified memo it replaces.
"$SEGA" memo-compact --cache-file shard.memo.jsonl --shards 2 \
  --out compacted.memo.jsonl > /dev/null
cmp shard.memo.jsonl compacted.memo.jsonl

# One-command local fleet: fork 2 supervised workers + merge.
"$SEGA" orchestrate "${GRID[@]}" --workers 2 \
  --checkpoint orch.ckpt.jsonl > orchestrated.csv
cmp serial.csv orchestrated.csv

# And the scripted multi-host template agrees too.
"$ROOT/tools/sweep_launch.sh" "$SEGA" 2 launch.ckpt.jsonl \
  "${GRID[@]}" > launched.csv
cmp serial.csv launched.csv

echo "OK: sharded merge smoke"
