#!/usr/bin/env bash
# Full verification sweep: tier-1 build + tests, then the sanitizer
# smoke suites in separate build trees. This is what CI (and a human
# before merging) should run; tier-1 alone is the merge gate, the
# sanitizer passes catch the data-race / memory-hazard classes that
# plain test runs cannot.
#
#   scripts/verify.sh            # tier-1 + spill check + smoke suites
#   scripts/verify.sh --tier1    # tier-1 only
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
TIER1_ONLY=0
[[ "${1:-}" == "--tier1" ]] && TIER1_ONLY=1

# Builds tree $1 and fails when the build prints a warning: one that
# scrolls by unread buries the next. An incremental build recompiles only
# what changed, so a fresh tree is what checks every file.
build_warning_free() {
  cmake --build "$1" -j "${JOBS}" 2>&1 | tee "$1/verify_build.log"
  if grep -q "warning:" "$1/verify_build.log"; then
    echo "verify: FAIL — the $1 build printed warnings:"
    grep "warning:" "$1/verify_build.log"
    exit 1
  fi
}

echo "== settable values: THALI_NUM_THREADS, THALI_NET_POLL, one test hook =="
# src/ keeps three settable values. Any other getenv/secure_getenv read
# (or one whose argument is not a string literal) and any other
# *ForTesting name fails the run; a new knob goes through a per-network
# or per-server options struct instead.
env_reads="$(grep -rnE '\b(secure_)?getenv\s*\(' src |
  grep -vE '\bgetenv\("(THALI_NUM_THREADS|THALI_NET_POLL)"\)' || true)"
if [[ -n "${env_reads}" ]]; then
  echo "verify: FAIL — src/ reads an environment variable outside the list:"
  echo "${env_reads}"
  exit 1
fi
hooks="$(grep -rhoE '\b[A-Za-z0-9_]*ForTesting\b' src |
  grep -vx 'SetScalarKernelsForTesting' | sort -u || true)"
if [[ -n "${hooks}" ]]; then
  echo "verify: FAIL — src/ names a test hook other than" \
    "SetScalarKernelsForTesting:"
  echo "${hooks}"
  exit 1
fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
build_warning_free build
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== vector spills: SIMD kernel loops keep their vectors in registers =="
# Whether GCC keeps every tile accumulator in a ymm/zmm register depends
# on the code around a tile, and a spill in a k loop costs time without
# failing any test. Fails when an innermost loop with a multiply-add
# moves an xmm/ymm/zmm register to or from the stack (x86-64 hosts only).
if [[ "$(uname -m)" == "x86_64" ]]; then
  obj=build/src/tensor/CMakeFiles/thali_tensor.dir
  if ! python3 scripts/check_vector_spills.py \
      "${obj}/gemm_microkernel_avx2.cc.o" "${obj}/gemm_int8_avx2.cc.o" \
      "${obj}/gemm_microkernel_avx512.cc.o"; then
    echo "verify: FAIL — a SIMD kernel loop spills a vector register"
    exit 1
  fi
else
  echo "vector spills: skipped on $(uname -m)"
fi

echo "== int8 smoke: quantization conformance suite =="
ctest --test-dir build --output-on-failure -j "${JOBS}" -L int8_smoke

echo "== net smoke: THL1 protocol + loopback end-to-end suite =="
# Framing round-trips, split-point reassembly, hostile-frame rejection,
# and the socket-path ≡ in-process bitwise pin (tests/net).
ctest --test-dir build --output-on-failure -j "${JOBS}" -L net_smoke

echo "== prepost smoke: pre/post fast-path parity suite =="
# Letterbox bitwise pin (scalar family), fused letterbox-quantize byte
# contract, raw-decode and fast-NMS exact-equivalence pins, and the
# Detect pin against the test-side seed pipeline (tests/prepost,
# oracles in tests/seed_prepost.h).
ctest --test-dir build --output-on-failure -j "${JOBS}" -L prepost_smoke

echo "== int8 chained-edge gate: calibrated yolov4-thali must chain =="
# End-to-end calibrated forward on the fused plan (calibrating is the
# int8 opt-in); the test fails if the compiled plan reports zero chained
# edges, fewer than 49 quantized layers, or a cold (fp32) network input
# on yolov4-thali after calibration + replan.
./build/tests/int8/int8_test \
  --gtest_filter='Int8Test.ReplanAfterCalibrationChainsMajorityOfThali'

if [[ "${TIER1_ONLY}" == "1" ]]; then
  echo "verify: tier-1 PASS (sanitizer suites skipped)"
  exit 0
fi

echo "== tsan smoke: threading-heavy tests under ThreadSanitizer =="
cmake -B build-tsan -S . -DTHALI_SANITIZE=thread >/dev/null
build_warning_free build-tsan
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L tsan_smoke

echo "== asan smoke: fused-plan / kernel-edge tests under ASan+UBSan =="
cmake -B build-asan -S . -DTHALI_SANITIZE=address >/dev/null
build_warning_free build-asan
ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L asan_smoke

echo "verify: ALL PASS (tier-1 + tsan_smoke + asan_smoke)"
