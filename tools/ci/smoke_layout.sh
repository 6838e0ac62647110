#!/usr/bin/env bash
# Layout-stage smoke (the CI step; run locally against any build dir):
# with `--layout` *off* every sweep artifact must be byte-identical to a
# run that never heard of the flag; with it *on* the stage must strictly
# increase delay and energy on every grid cell, stay byte-repeatable at
# any thread count, and never share memo/checkpoint state with the
# layout-off world in either direction.
#
# usage: tools/ci/smoke_layout.sh [build-dir]   (default: build)
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

SWEEP=(sweep --wstores 512,1024 --precisions INT8,FP16
       --population 16 --generations 4 --seed 7)

# Toggle-off byte-identity: a plain sweep and the same sweep with the
# layout key spelled "false" in a spec file produce identical JSON, CSV,
# checkpoint, and memo — cold and warm.  Both run serially: checkpoint
# lines are appended in cell-completion order, which only --threads 1
# fixes, and the checkpoints are compared byte for byte.
"$SEGA" "${SWEEP[@]}" --threads 1 --out plain --checkpoint plain.ckpt \
  --cache-file plain.memo > plain.csv
cat > off.json <<'EOF'
{"layout": false}
EOF
"$SEGA" "${SWEEP[@]}" --threads 1 --spec off.json --out off \
  --checkpoint off.ckpt --cache-file off.memo > off.csv
cmp plain.csv off.csv
cmp plain/sweep.json off/sweep.json
cmp plain/sweep.csv off/sweep.csv
cmp plain.ckpt off.ckpt
cmp plain.memo off.memo

# Layout-on: repeatable byte-for-byte, bit-identical serial vs parallel.
"$SEGA" "${SWEEP[@]}" --layout --out on_a --threads 1 > on_a.csv
SEGA_THREADS=8 "$SEGA" "${SWEEP[@]}" --layout --out on_b --threads 0 \
  > on_b.csv
cmp on_a.csv on_b.csv
cmp on_a/sweep.json on_b/sweep.json

# The stage must bite: for every *design point* both runs evaluated (the
# memos share at least the seed-identical initial populations), the
# layout-on metrics must show strictly higher delay and energy than the
# layout-off metrics.  Point-matched on the memo key — the DSE is free to
# pick different knees once wire cost reshapes the landscape.
"$SEGA" "${SWEEP[@]}" --layout --cache-file on_check.memo > /dev/null
python3 - <<'EOF'
import json
def entries(path):
    out = {}
    with open(path) as f:
        for line in f:
            e = json.loads(line)
            if "k" in e and "m" in e:
                out[tuple(e["k"])] = e["m"]
    return out
off, on = entries("plain.memo"), entries("on_check.memo")
shared = set(off) & set(on)
assert len(shared) >= 16, f"only {len(shared)} shared design points"
for key in shared:
    # m[5] = delay_ns, m[7] = energy_per_cycle_fj (FORMATS.md entry order).
    assert on[key][5] > off[key][5], f"{key}: delay did not increase"
    assert on[key][7] > off[key][7], f"{key}: energy did not increase"
print(f"layout fold verified on {len(shared)} shared design points")
EOF

# Cross-contamination must fail, all four ways: layout-on state never
# seeds a layout-off run, and vice versa — for both the memo and the
# checkpoint.
"$SEGA" "${SWEEP[@]}" --layout --cache-file on.memo --checkpoint on.ckpt \
  > /dev/null
if "$SEGA" "${SWEEP[@]}" --cache-file on.memo > /dev/null 2>&1; then
  echo "error: layout-off sweep accepted a layout-on memo" >&2
  exit 1
fi
if "$SEGA" "${SWEEP[@]}" --checkpoint on.ckpt > /dev/null 2>&1; then
  echo "error: layout-off sweep resumed a layout-on checkpoint" >&2
  exit 1
fi
if "$SEGA" "${SWEEP[@]}" --layout --cache-file plain.memo \
  > /dev/null 2>&1; then
  echo "error: layout-on sweep accepted a layout-off memo" >&2
  exit 1
fi
if "$SEGA" "${SWEEP[@]}" --layout --checkpoint plain.ckpt \
  > /dev/null 2>&1; then
  echo "error: layout-on sweep resumed a layout-off checkpoint" >&2
  exit 1
fi

echo "OK: layout smoke"
