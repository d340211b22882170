#!/usr/bin/env bash
# Builds the suite under AddressSanitizer and runs every test, then
# builds it under ThreadSanitizer and runs the concurrency-,
# robustness-, durability-, transactions-, plancache-, integrity- and
# server-labeled tests. Any sanitizer report fails the run
# (halt_on_error), so a green exit means the whole suite is ASan-clean
# and those seven labels are TSan-clean.
#
# Usage: scripts/check_sanitizers.sh [build-root]
#   build-root defaults to build-sanitize/ next to the source tree;
#   one subdirectory per sanitizer is configured inside it.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
root="${1:-$repo/build-sanitize}"
tsan_labels='concurrency|robustness|durability|transactions|plancache|integrity|server'
jobs="$(nproc 2>/dev/null || echo 4)"

# run_one <sanitizer> [ctest filter...]: no filter runs every test.
run_one() {
  local sanitizer="$1"
  shift
  local dir="$root/$sanitizer"
  echo "== TIP_SANITIZE=$sanitizer: configure + build ($dir) =="
  cmake -S "$repo" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTIP_SANITIZE="$sanitizer" >/dev/null
  cmake --build "$dir" -j "$jobs" >/dev/null
  echo "== TIP_SANITIZE=$sanitizer: ctest $* =="
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$dir" "$@" -j "$jobs" --output-on-failure
  # The shared-gate overlap must survive under the sanitizer too: two
  # think-time browsers beating the serialized baseline is the smallest
  # observable form of the session-concurrency contract.
  echo "== TIP_SANITIZE=$sanitizer: bench_concurrent_reads --smoke =="
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  TSAN_OPTIONS="halt_on_error=1" \
    "$dir/bench/bench_concurrent_reads" --smoke
}

run_one address
run_one thread -L "$tsan_labels"
# The crash-torture harness gets a dedicated pass (reuses the address
# build directory, so this adds no rebuild).
"$repo/scripts/check_crash.sh" "$root"
echo "sanitizers clean: every test under ASan, $tsan_labels under TSan"
