#!/usr/bin/env bash
# Micro-kernel perf smoke: runs the hot-path benchmarks (GEMM, Conv2d
# forward, attention forward, batched GLSC window decode, sz window decode)
# and emits BENCH_micro.json, then runs the end-to-end decode throughput
# bench (bench_e2e_decode) and emits BENCH_e2e.json, so the performance trajectory
# is tracked across PRs. With --codec=NAME it additionally runs the
# unified-API codec throughput smoke (bench_codec_api) for that backend.
#
# Also runs the v4 filter-pipeline bench (bench_filters) over glsc + sz and
# emits BENCH_filters.json with the filtered-vs-raw ratio and fetch MB/s.
#
# Usage:
#   scripts/bench_smoke.sh [--codec=NAME] [extra google-benchmark flags...]
#
# Environment:
#   BUILD_DIR   build tree containing the bench binaries (default: build)
#   OUT         output JSON path (default: BENCH_micro.json)
#   E2E_OUT     e2e decode JSON path (default: BENCH_e2e.json)
#   E2E_CODEC   codec for the e2e decode bench (default: glsc; the first run
#               trains a tiny cached artifact under glsc_artifacts/)
#   GLSC_FORCE_SCALAR=1 / GLSC_ISA=...  pin the dispatch level under test
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT=${OUT:-BENCH_micro.json}
BIN="$BUILD_DIR/bench_micro_kernels"

CODEC=""
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --codec=*) CODEC="${arg#--codec=}" ;;
    --codec) echo "error: use --codec=NAME" >&2; exit 2 ;;
    *) ARGS+=("$arg") ;;
  esac
done

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found — configure and build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

"$BIN" \
  --benchmark_filter='BM_Gemm|BM_Conv2dForward|BM_AttentionForward|BM_GlscDecodeBatch|BM_SzDecodeWindow' \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  ${ARGS[@]+"${ARGS[@]}"}

echo "wrote $OUT"

E2E_BIN="$BUILD_DIR/bench_e2e_decode"
E2E_OUT=${E2E_OUT:-BENCH_e2e.json}
E2E_CODEC=${E2E_CODEC:-glsc}
if [[ ! -x "$E2E_BIN" ]]; then
  echo "error: $E2E_BIN not found — rebuild first" >&2
  exit 1
fi
# 128 frames = 8 records so the batched-fetch arm coalesces a full
# max_batch=8 chunk (3 records would cap the batch at 3).
"$E2E_BIN" --codec="$E2E_CODEC" --frames=128 --batch=8 --json="$E2E_OUT"

FILTERS_BIN="$BUILD_DIR/bench_filters"
FILTERS_OUT=${FILTERS_OUT:-BENCH_filters.json}
if [[ ! -x "$FILTERS_BIN" ]]; then
  echo "error: $FILTERS_BIN not found — rebuild first" >&2
  exit 1
fi
# Full trajectory arm: glsc (trains or reuses the cached e2e artifact) + sz,
# so BENCH_filters.json carries the filtered-vs-raw ratio for both.
"$FILTERS_BIN" --codecs=glsc,sz --json="$FILTERS_OUT"
echo "wrote $FILTERS_OUT"

if [[ -n "$CODEC" ]]; then
  CODEC_BIN="$BUILD_DIR/bench_codec_api"
  if [[ ! -x "$CODEC_BIN" ]]; then
    echo "error: $CODEC_BIN not found — rebuild first" >&2
    exit 1
  fi
  "$CODEC_BIN" --codec="$CODEC"
fi
