#!/usr/bin/env bash
# One-command PR gate: configure, build, and run the full ctest suite (native
# + _scalar registrations), glsc_lint, the serving and filter bench gates and
# the perfbench selftest, with a nonzero exit on any failure.
#
# Usage:
#   scripts/check.sh [-j N] [extra ctest args...]
#
# Environment:
#   BUILD_DIR    build tree (default: build)
#   BUILD_TYPE   CMake build type (default: Release)
#   JOBS         parallelism for build + ctest (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
BUILD_TYPE=${BUILD_TYPE:-Release}
JOBS=${JOBS:-$(nproc)}

if [[ "${1:-}" == "-j" ]]; then
  JOBS="$2"
  shift 2
fi

echo "== configure ($BUILD_TYPE) =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE"

echo "== build (-j$JOBS) =="
cmake --build "$BUILD_DIR" -j"$JOBS"

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS" "$@"

# The project invariant linter always gates — it is a sub-second token scan
# and the invariants it enforces (no raw sync primitives outside
# util/mutex.h, dual native+_scalar test registration, no <iostream> in
# headers, no naked new/delete in src/) rot silently the moment they stop
# being checked. Sanctioned exceptions live in tools/lint_allowlist.txt.
echo "== glsc_lint =="
"$BUILD_DIR/glsc_lint" .

# The serve and workspace suites guard the random-access read path and the
# zero-allocation decode path; make sure the glob actually registered them
# under BOTH dispatch registrations (a stale build tree or a renamed file
# would otherwise drop them silently).
echo "== serve + workspace tests registered (native + _scalar) =="
for t in serve_test serve_test_scalar workspace_test workspace_test_scalar \
         shard_manager_test shard_manager_test_scalar \
         concurrency_stress_test concurrency_stress_test_scalar \
         fuzz_regression_test fuzz_regression_test_scalar \
         glsc_lint_test glsc_lint_test_scalar \
         lock_checker_test lock_checker_test_scalar \
         arena_debug_test arena_debug_test_scalar \
         filters_test filters_test_scalar \
         container_v4_test container_v4_test_scalar; do
  # grep reads to EOF (no -q): under `pipefail`, an early-exiting grep can
  # SIGPIPE ctest and turn a present registration into a spurious failure.
  if ! ctest --test-dir "$BUILD_DIR" -N -R "^${t}\$" | grep "${t}\$" > /dev/null; then
    echo "error: ctest registration missing: $t" >&2
    exit 1
  fi
done

# Bench JSON gate: the serving front end (bench_serve, the only shed/timeout
# measurement) and the L0 filter kernels (bench_filters) on gate-sized inputs.
# Reject any inf/nan in what they emit — degenerate metrics must be clamped at
# the source, not discovered downstream by a JSON parser.
echo "== bench JSON gate =="
"$BUILD_DIR/bench_serve" --json="$BUILD_DIR/BENCH_serve.json"
# Filter-pipeline gate: model-free sz arm, small buffer so it stays cheap.
# The full glsc trajectory (which may train) lives in bench_smoke.sh.
"$BUILD_DIR/bench_filters" --codecs=sz --frames=64 --mb=2 --reps=3 \
    --json="$BUILD_DIR/BENCH_filters.json"
if [[ ! -s "$BUILD_DIR/BENCH_serve.json" ]]; then
  echo "error: BENCH_serve.json missing or empty" >&2
  exit 1
fi
# The serving front end must prove graceful degradation, not just run: the
# overload arm has to have shed load through the bounded queue.
for field in sustained_qps sustained_p50_ms sustained_p99_ms overload_qps \
             overload_p99_ms overload_shed overload_timeouts \
             sustained_retries; do
  if ! grep -q "\"$field\"" "$BUILD_DIR/BENCH_serve.json"; then
    echo "error: BENCH_serve.json missing field: $field" >&2
    exit 1
  fi
done
if grep -q '"overload_shed": 0,' "$BUILD_DIR/BENCH_serve.json"; then
  echo "error: overload arm shed nothing — not an overload" >&2
  exit 1
fi
# The filter bench must report the kernel throughputs and the filtered-vs-raw
# comparison — a stale binary would silently drop the v4 headline numbers.
if [[ ! -s "$BUILD_DIR/BENCH_filters.json" ]]; then
  echo "error: BENCH_filters.json missing or empty" >&2
  exit 1
fi
for field in bitshuffle_enc_gbps bitshuffle_dec_gbps delta_enc_gbps \
             delta_dec_gbps glz_comp_gbps glz_decomp_gbps v4_over_raw_ratio \
             raw_window_fetch_mb_s v4_window_fetch_mb_s; do
  if ! grep -q "\"$field\"" "$BUILD_DIR/BENCH_filters.json"; then
    echo "error: BENCH_filters.json missing field: $field" >&2
    exit 1
  fi
done
# Filter selection must actually shrink the archive relative to the same
# archive stored raw (ratio < 1).
if grep -qE '"v4_over_raw_ratio": (1|[2-9])' "$BUILD_DIR/BENCH_filters.json"; then
  echo "error: filtered v4 archive not smaller than raw" >&2
  exit 1
fi
bad=0
# Gate ONLY the two files the commands above emitted. A BENCH_*.json glob over
# the repo root (or the whole build dir) would also pick up artifacts from
# earlier manual bench runs and fail this gate on files this run never wrote.
for f in "$BUILD_DIR/BENCH_serve.json" "$BUILD_DIR/BENCH_filters.json"; do
  [[ -f "$f" ]] || continue
  if grep -nE '(^|[^A-Za-z_])-?(inf|nan)([^A-Za-z_]|$)' "$f"; then
    echo "error: non-finite value in $f" >&2
    bad=1
  fi
done
if [[ $bad -ne 0 ]]; then
  exit 1
fi

# The read-path benchmark (perfbench/, declared in BENCHMARK.json): build it
# against this tree under $BUILD_DIR/perfbench and run every workload at tiny
# size, timed and traced. It fails on a build error, a non-zero exit, an
# incorrect result, or a declared metric that is missing or not finite.
echo "== perfbench selftest =="
CARGO_TARGET_DIR="$BUILD_DIR" python3 perfbench/run.py --selftest

# Opt-in lanes. A lane requested via env var must RUN or FAIL the gate —
# never skip: the CMake configure step behind each lane probes its toolchain
# requirement (check_cxx_compiler_flag) and raises FATAL_ERROR when the
# compiler cannot honor it, which aborts this script under `set -e`. CI can
# therefore trust that a green CHECK_SANITIZE/CHECK_ANALYZE/CHECK_DEBUG run
# actually executed the instrumented tree, rather than silently no-opping on
# a toolchain that lacks the support.
#
# Sanitizer lane: CHECK_SANITIZE=address,undefined (any -fsanitize= list)
# builds a separate instrumented tree and runs the concurrency-heavy serving
# suites plus the kernel suites under it: tensor (GEMM, implicit-GEMM
# convolution packing, im2col), nn (layers), simd (every dispatch level,
# attention kernel included), batched_decode and workspace (the inference
# path end to end), and the codec suites: codec (the table-driven Huffman
# reader and its hostile streams), compress (the VAE and hyperprior entropy
# decode, hostile hyperlatent shapes included), baselines (the sz and zfp
# decoders) and fuzz_regression (every harness over the regression corpus),
# and api (every codec end to end through EncodeSession, ArchiveReader and
# DecodeScheduler). Off by default — the instrumented build roughly doubles
# gate time — but cheap to request when touching serve/, util/, codec/ or
# the kernels.
# CHECK_SANITIZE=thread is special-cased onto the GLSC_TSAN option (TSan is
# incompatible with ASan in one binary) and gets the serving and stress
# suites plus batched_decode (a GLSC decode fans its sampler and VAE pieces
# out over the global pool), with the documented libstdc++ suppressions
# (tsan.supp). Both trees default the
# GLSC_DEBUG_LOCKS/GLSC_DEBUG_ARENA runtime checkers ON (see CMakeLists).
if [[ "${CHECK_SANITIZE:-}" == "thread" ]]; then
  TSAN_DIR="${BUILD_DIR}-tsan"
  echo "== TSan lane (GLSC_TSAN=ON) =="
  cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGLSC_TSAN=ON
  cmake --build "$TSAN_DIR" -j"$JOBS" \
      --target shard_manager_test serve_test concurrency_stress_test \
               workspace_test util_test batched_decode_test
  TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/tsan.supp" \
      ctest --test-dir "$TSAN_DIR" --output-on-failure -j"$JOBS" \
      -R '^(shard_manager_test|serve_test|concurrency_stress_test|workspace_test|util_test|batched_decode_test)(_scalar)?$'
elif [[ -n "${CHECK_SANITIZE:-}" ]]; then
  SAN_DIR="${BUILD_DIR}-sanitize"
  echo "== sanitizer lane (-fsanitize=$CHECK_SANITIZE) =="
  cmake -B "$SAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGLSC_SANITIZE="$CHECK_SANITIZE"
  cmake --build "$SAN_DIR" -j"$JOBS" \
      --target shard_manager_test serve_test concurrency_stress_test \
               tensor_test nn_test simd_test batched_decode_test workspace_test \
               codec_test compress_test baselines_test fuzz_regression_test \
               api_test
  ctest --test-dir "$SAN_DIR" --output-on-failure -j"$JOBS" \
      -R '^(shard_manager_test|serve_test|concurrency_stress_test|tensor_test|nn_test|simd_test|batched_decode_test|workspace_test|codec_test|compress_test|baselines_test|fuzz_regression_test|api_test)(_scalar)?$'
fi

# Opt-in debug-checker lane: CHECK_DEBUG=1 builds a RelWithDebInfo tree with
# the runtime lock-order checker (GLSC_DEBUG_LOCKS) and arena borrow
# validation (GLSC_DEBUG_ARENA) force-enabled, then runs the FULL suite plus
# the serving bench under them. This is the gcc-toolchain counterpart of the
# clang thread-safety leg: the lock discipline and borrow lifetimes are
# enforced at runtime instead of compile time.
if [[ -n "${CHECK_DEBUG:-}" ]]; then
  DEBUG_DIR="${BUILD_DIR}-debug"
  echo "== debug-checker lane (GLSC_DEBUG_LOCKS=ON GLSC_DEBUG_ARENA=ON) =="
  cmake -B "$DEBUG_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGLSC_DEBUG_LOCKS=ON -DGLSC_DEBUG_ARENA=ON
  cmake --build "$DEBUG_DIR" -j"$JOBS"
  ctest --test-dir "$DEBUG_DIR" --output-on-failure -j"$JOBS"
  "$DEBUG_DIR/bench_serve" --json="$DEBUG_DIR/BENCH_serve.json"
  f="$DEBUG_DIR/BENCH_serve.json"
  if [[ ! -s "$f" ]]; then
    echo "error: $f missing or empty" >&2
    exit 1
  fi
  if grep -nE '(^|[^A-Za-z_])-?(inf|nan)([^A-Za-z_]|$)' "$f"; then
    echo "error: non-finite value in $f" >&2
    exit 1
  fi
fi

# Opt-in static-analysis lane: the project linter, a -Werror rebuild and
# (when clang is available) thread-safety analysis and clang-tidy, with an
# end-of-run ran/skipped summary. See scripts/lint.sh.
if [[ -n "${CHECK_LINT:-}" ]]; then
  scripts/lint.sh
fi

# Opt-in gcc -fanalyzer lane: interprocedural static analysis of src/ against
# the triaged baseline in tools/fanalyzer_baseline.txt — new findings fail,
# stale baseline entries fail. See scripts/analyze.sh.
if [[ -n "${CHECK_ANALYZE:-}" ]]; then
  scripts/analyze.sh
fi

# Opt-in fuzz smoke: bounded ASan/UBSan run of the fuzz/ harnesses over the
# generated seed corpus. See scripts/fuzz_smoke.sh.
if [[ -n "${CHECK_FUZZ:-}" ]]; then
  scripts/fuzz_smoke.sh
fi

echo "== OK =="
