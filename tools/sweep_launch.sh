#!/usr/bin/env bash
# Launch an N-worker sharded sweep on this host and merge the results — an
# unsupervised `sega_dcim orchestrate --workers N`, kept as the template for
# going *multi-host*: run each `sweep --shard i/N` line on any
# machine that sees the same filesystem (or copy the shard files back), then
# run `sweep-merge` once anywhere.
#
# usage: tools/sweep_launch.sh <sega_dcim-binary> <num-shards> \
#            <checkpoint-base> [grid/DSE flags...]
#
# The extra flags are passed to every worker AND to the merge (both must
# describe the identical grid or the shard fingerprints will not match).
# Pass grid/DSE flags only — in particular, direct output with --out on a
# separate `sweep-merge` invocation rather than here if you want per-step
# control; `--shard` and `--shards` are supplied by this script and must not
# be repeated.
set -euo pipefail

if [ "$#" -lt 3 ]; then
  echo "usage: $0 <sega_dcim-binary> <num-shards> <checkpoint-base> [flags...]" >&2
  exit 2
fi
BIN=$1
N=$2
CKPT=$3
shift 3

# Divide the host between the workers instead of oversubscribing it N-fold
# (each worker would otherwise default to full hardware concurrency).  An
# explicit --threads among the passthrough flags wins: the CLI keeps the
# last occurrence of a flag.
THREADS=$(( $(nproc) / N ))
[ "$THREADS" -ge 1 ] || THREADS=1

pids=()
for i in $(seq 0 $((N - 1))); do
  "$BIN" sweep --threads "$THREADS" --shard "$i/$N" --checkpoint "$CKPT" \
      "$@" > /dev/null &
  pids+=($!)
done

fail=0
for pid in "${pids[@]}"; do
  wait "$pid" || fail=1
done
if [ "$fail" -ne 0 ]; then
  echo "[sweep_launch] a shard worker failed; shard files are kept — fix and" \
       "re-run (completed cells resume from the shard checkpoints)" >&2
  exit 1
fi

exec "$BIN" sweep-merge --shards "$N" --checkpoint "$CKPT" "$@"
