#!/usr/bin/env bash
# Link check (the CI step on the gcc Release leg; run locally against any
# Makefile-generator build dir): which objects of libsega_core.a does the
# sega_dcim binary link?  Re-runs the binary's own CMake link command with
# a link map, writing both into a temp dir (the build's binary is left
# alone), and compares the archive members the map names against `ar t`.
#
# Fails when a member outside KNOWN_UNLINKED is never linked (code no
# command reaches), and when a KNOWN_UNLINKED member is linked or gone
# from the archive — so the list shrinks as those objects move out of
# src/ (ROADMAP item 5).
#
# usage: tools/ci/check_linked_objects.sh [build-dir]   (default: build)
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

# Objects no command links today: oracles and example support that tests,
# benches and examples use.
KNOWN_UNLINKED=(behavioral.cpp.o mapping.cpp.o softfloat.cpp.o
                tb_writer.cpp.o workload.cpp.o)

BUILD_DIR=$(cd "${1:-build}" && pwd)
LINK_TXT="$BUILD_DIR/CMakeFiles/sega_dcim.dir/link.txt"
if [ ! -f "$LINK_TXT" ] || [ ! -f "$BUILD_DIR/libsega_core.a" ]; then
  echo "error: $LINK_TXT or libsega_core.a missing (build sega_dcim with the Makefile generator first)" >&2
  exit 2
fi
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$BUILD_DIR"

link_cmd=$(cat "$LINK_TXT")
relink=${link_cmd/ -o sega_dcim / -o $WORK/sega_dcim -Wl,-Map=$WORK/sega_dcim.map }
if [ "$relink" = "$link_cmd" ]; then
  echo "error: no ' -o sega_dcim ' in $LINK_TXT" >&2
  exit 2
fi
sh -c "$relink"

grep -o 'libsega_core\.a([^)]*)' "$WORK/sega_dcim.map" |
  sed 's/^libsega_core\.a(\(.*\))$/\1/' | sort -u > "$WORK/linked"
ar t libsega_core.a | sort -u > "$WORK/members"
printf '%s\n' "${KNOWN_UNLINKED[@]}" | sort -u > "$WORK/known"
comm -23 "$WORK/members" "$WORK/linked" > "$WORK/unlinked"

status=0
report() {  # report <message> <file>: one FAIL line per member listed
  while read -r member; do
    echo "FAIL: $member $1" >&2
    status=1
  done < "$2"
}
comm -23 "$WORK/unlinked" "$WORK/known" > "$WORK/new"
report "is in libsega_core.a but sega_dcim never links it" "$WORK/new"
comm -12 "$WORK/known" "$WORK/linked" > "$WORK/now_linked"
report "is linked now; drop it from KNOWN_UNLINKED" "$WORK/now_linked"
comm -23 "$WORK/known" "$WORK/members" > "$WORK/gone"
report "is no longer in libsega_core.a; drop it from KNOWN_UNLINKED" "$WORK/gone"

if [ "$status" -eq 0 ]; then
  echo "OK: sega_dcim links $(wc -l < "$WORK/linked") of $(wc -l < "$WORK/members") libsega_core.a members; the ${#KNOWN_UNLINKED[@]} known unlinked: ${KNOWN_UNLINKED[*]}"
fi
exit "$status"
