#!/usr/bin/env bash
# Bit-identity check of encode + decode against another commit, for the
# GLSC and sz codecs. Builds <git-ref>'s glsc_core from a `git archive`
# export in a temporary directory and this checkout's in BUILD_DIR, compiles
# this checkout's bench/decode_dump.cc against each (it uses public API only),
# then diffs the hashes the two binaries print at every dispatch level:
# native, GLSC_ISA=avx2 and GLSC_ISA=scalar. decode_dump hashes
# each shard of the glsc_window_reads and sz_window_reads workloads — its
# archive file and its GetAll output at max_batch 1 and 3 — so a pass covers
# the GLSC pipeline, the sz writer, EncodeSession and the sz decoder. Levels
# the host lacks clamp to the best one it has, so they still compare. Exits
# nonzero on any difference.
#
# Usage:
#   scripts/decode_identity.sh <git-ref>
#
# Environment:
#   BUILD_DIR   this checkout's build tree (default: build)
#   JOBS        build parallelism (default: nproc)
#   CXX         compiler for decode_dump (default: c++)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/decode_identity.sh <git-ref>" >&2
  exit 2
fi
REF=$1
BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}
CXX=${CXX:-c++}

if ! git rev-parse --verify --quiet "$REF^{commit}" >/dev/null; then
  echo "error: $REF is not a commit" >&2
  exit 2
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/decode_identity.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

echo "== $REF: glsc_core in a temporary export =="
mkdir "$WORK/ref"
git archive "$REF" | tar -x -C "$WORK/ref"
cmake -B "$WORK/ref-build" -S "$WORK/ref" -DCMAKE_BUILD_TYPE=Release \
    >/dev/null
cmake --build "$WORK/ref-build" -j"$JOBS" --target glsc_core >/dev/null

echo "== this checkout: glsc_core in $BUILD_DIR =="
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$BUILD_DIR" -j"$JOBS" --target glsc_core >/dev/null

echo "== decode_dump against both trees =="
"$CXX" -std=c++20 -O2 -I"$WORK/ref/src" bench/decode_dump.cc \
    "$WORK/ref-build/libglsc_core.a" -lpthread -o "$WORK/dump_ref"
"$CXX" -std=c++20 -O2 -Isrc bench/decode_dump.cc \
    "$BUILD_DIR/libglsc_core.a" -lpthread -o "$WORK/dump_head"

status=0
for level in native avx2 scalar; do
  case "$level" in
    native) pin=() ;;
    avx2) pin=(GLSC_ISA=avx2) ;;
    scalar) pin=(GLSC_ISA=scalar) ;;
  esac
  for side in ref head; do
    env -u GLSC_ISA -u GLSC_FORCE_SCALAR ${pin[@]+"${pin[@]}"} \
        "$WORK/dump_$side" >"$WORK/$side.$level.txt"
  done
  lines=$(wc -l <"$WORK/head.$level.txt")
  if diff -u "$WORK/ref.$level.txt" "$WORK/head.$level.txt"; then
    echo "$level: identical ($lines hashes)"
  else
    echo "$level: DIFFERENT from $REF" >&2
    status=1
  fi
done
if [[ $status -eq 0 ]]; then
  echo "== identical to $REF at every level =="
fi
exit $status
