#!/usr/bin/env bash
# Micro-kernel perf smoke: runs the hot-path benchmarks (GEMM, Conv2d
# forward, attention forward, batched GLSC window decode, sz window decode)
# and emits BENCH_micro.json. With --codec=NAME it additionally runs the
# unified-API codec throughput smoke (bench_codec_api) for that backend.
#
# Also runs the v4 filter-pipeline bench (bench_filters) over glsc + sz and
# emits BENCH_filters.json with the filtered-vs-raw ratio and fetch MB/s.
#
# GLSC end-to-end numbers (decode served through ShardManager) come from
# `python3 perfbench/run.py --workload glsc_window_reads`.
#
# Usage:
#   scripts/bench_smoke.sh [--codec=NAME] [extra google-benchmark flags...]
#
# Environment:
#   BUILD_DIR   build tree containing the bench binaries (default: build)
#   OUT         output JSON path (default: BENCH_micro.json)
#   FILTERS_OUT filter bench JSON path (default: BENCH_filters.json)
#   GLSC_ISA=scalar|avx2|avx512  pin the dispatch level under test
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

FILTERS_BIN="$BUILD_DIR/bench_filters"
FILTERS_OUT=${FILTERS_OUT:-BENCH_filters.json}
if [[ ! -x "$FILTERS_BIN" ]]; then
  echo "error: $FILTERS_BIN not found — rebuild first" >&2
  exit 1
fi
# Full trajectory arm: glsc (trains or reuses its cached artifact) + sz,
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
