#!/usr/bin/env bash
# Build the benchmarks in Release and record the VM engine comparison.
#
#   tools/bench.sh            full sizes, writes BENCH_vm.json at the root
#   tools/bench.sh --smoke    small sizes (CI), same JSON format
#
# The JSON is an array of {program, engine, host_ms, cycles} rows — walk,
# bytecode, native (compiled lane kernels; omitted on hosts without a
# working C++ toolchain), and the profiling/robustness variants, one of
# each per workload (see docs/VM.md).  The engine rows carry equal cycles.
# tools/ci.sh native gates the recorded fig8 native row against
# regression.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-release"
extra=("$@")

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j --target vm_engine

"$build/bench/vm_engine" "${extra[@]}" --json="$root/BENCH_vm.json"
echo "wrote $root/BENCH_vm.json"
