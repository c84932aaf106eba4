#!/usr/bin/env bash
# Tier-1 verification, plain and under ASan/UBSan/TSan.
#
#   tools/ci.sh          all configurations + Release bench smoke
#   tools/ci.sh plain    plain RelWithDebInfo build + ctest only
#   tools/ci.sh asan     ASan/UBSan build + ctest only
#   tools/ci.sh tsan     ThreadSanitizer build + concurrency suites
#   tools/ci.sh bench    warning-free Release build of every target
#                        (tests included) + vm_engine --smoke only
#   tools/ci.sh native   Release build + native-tier fig8 perf gate only
#
# The asan configuration re-runs the engine parity suite explicitly (the
# bytecode/walk differential tests) so a parity regression under the
# sanitizers fails loudly even when filtering.  Build trees go to build/
# (plain), build-asan/ (sanitized) and build-release/ (bench) under the
# repository root.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${1:-all}"

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S "$root" "$@"
  cmake --build "$dir" -j
  ctest --test-dir "$dir" --output-on-failure -j
}

# Profiling smoke on the paper workloads (docs/PROFILING.md): a profiled
# or traced run must leave the program output bit-identical, `ucc profile`
# and `ucc run --profile` must attribute the same cycles to every site, and
# the hot-site table must account for every modeled cycle (no ** MISMATCH
# ** marker).  A statement row's static column (`ucc analyze`'s classes)
# must agree with its own ops columns unless it names scan (a class the
# engines decide per lane): static news exactly when the row issued a NEWS
# instruction, static router exactly when it issued a router one.
# stencil_offsets puts lane-relative reads on a 1-based set and on both
# sides of the NEWS limit; sc_blocks and wavefront run plain solves, whose
# guards are statement rows and whose equations are solve-eq rows.
run_profile_smoke() {
  local dir="$1"
  local ucc="$dir/tools/ucc"
  local tmp; tmp="$(mktemp -d)"
  for prog in fig6_shortest_path_on2 fig7_shortest_path_on3 \
              fig8_grid_obstacle stencil_offsets sc_blocks wavefront; do
    local src="$root/programs/$prog.uc"
    "$ucc" run "$src" >"$tmp/off.txt"
    "$ucc" run "$src" --profile --json="$tmp/a.json" >"$tmp/on.txt" 2>/dev/null
    cmp "$tmp/off.txt" "$tmp/on.txt" || {
      echo "ci.sh: profiling changed the output of $prog" >&2; exit 1; }
    "$ucc" run "$src" --profile --trace >"$tmp/traced.txt" 2>/dev/null
    cmp "$tmp/off.txt" "$tmp/traced.txt" || {
      echo "ci.sh: a traced profile changed the output of $prog" >&2; exit 1; }
    "$ucc" profile "$src" --json="$tmp/b.json" >"$tmp/table.txt"
    # Host time is the only field the two runs may disagree on.
    local json
    for json in a b; do
      sed 's/"host_ms": [0-9.]*, //' "$tmp/$json.json" >"$tmp/$json.sites"
    done
    cmp "$tmp/a.sites" "$tmp/b.sites" || {
      echo "ci.sh: run --profile and profile disagree on $prog" >&2; exit 1; }
    grep -q "sum of sites" "$tmp/table.txt" || {
      echo "ci.sh: no profile table for $prog" >&2; exit 1; }
    if grep -q "MISMATCH" "$tmp/table.txt"; then
      echo "ci.sh: per-site cycles do not sum to the aggregate for $prog" >&2
      exit 1
    fi
    # Columns: ops v/n/r/... is $5, static is $8, the site's kind is $10.
    awk '$10 == "stmt" && $8 !~ /scan/ {
           split($5, ops, "/")
           if (($8 ~ /news/) != (ops[2] > 0) ||
               ($8 ~ /router/) != (ops[3] > 0)) { print; bad = 1 }
         }
         END { exit bad }' "$tmp/table.txt" >"$tmp/contradicts.txt" || {
      echo "ci.sh: static classes contradict the charges of $prog:" >&2
      cat "$tmp/contradicts.txt" >&2
      exit 1
    }
  done
  rm -rf "$tmp"
}

# Engine smoke (docs/COSTMODEL.md "What an engine may not change"): walk,
# bytecode and native must print identical stdout and identical --stats
# lines on the paper workloads, plain and under injected faults with
# checkpointing, where the fault schedule and the replays are part of the
# cost.  Each program's native runs share a fresh kernel cache: the plain
# run builds every kernel cold, must dispatch at least one native kernel
# (a program that runs wholly on the front end checks no lane kernel) and
# must fall back to bytecode on none, and the faulted run must compile
# none.
run_engine_smoke() {
  local dir="$1"
  local ucc="$dir/tools/ucc"
  local faults="memory:p=1e-3;router:p=1e-3;news:p=1e-3,seed=7"
  local tmp; tmp="$(mktemp -d)"
  local prog flags eng cache
  # mapping_demo (a permuted array) and slices take the owner table;
  # jacobi's stencil reads are lane-relative sites, classified once per
  # site at link (docs/VM.md "Lane-relative sites"), and stencil_offsets
  # puts such sites on a 1-based set and around the NEWS limit next to a
  # transposed and a seq-bound read, which stay per lane; the next five
  # reduce over small (unrolled) and large (looped) index sets;
  # mixed_types converts ?: arms and swap() operands (docs/LANGUAGE.md
  # "Conversions"); sc_blocks puts an `others` arm under every construct.
  for prog in fig6_shortest_path_on2 fig7_shortest_path_on3 \
              fig8_grid_obstacle mapping_demo slices jacobi stencil_offsets \
              prefix_sums histogram matmul grid_dynamic_obstacle \
              shortest_path_star_solve mixed_types sc_blocks; do
    local src="$root/programs/$prog.uc"
    cache="--native-cache-dir=$tmp/cache-$prog"
    for flags in "" "--faults=$faults --checkpoint-every=8"; do
      for eng in walk bytecode native; do
        # shellcheck disable=SC2086  # flags is a word list
        "$ucc" run "$src" --engine="$eng" --stats $flags "$cache" \
            >"$tmp/$eng.out" 2>"$tmp/$eng.err"
        grep '^cycles=' "$tmp/$eng.err" >"$tmp/$eng.stats" || {
          echo "ci.sh: no --stats line for $prog on $eng" >&2; exit 1; }
      done
      if [ -n "$flags" ] && ! grep -q '^native: compiled=0 ' "$tmp/native.err"
      then
        echo "ci.sh: the warm native run of $prog compiled kernels" >&2
        exit 1
      fi
      if [ -z "$flags" ] &&
          ! grep -q '^native: .* dispatches=[1-9]' "$tmp/native.err"; then
        echo "ci.sh: the native run of $prog dispatched no kernel" >&2
        exit 1
      fi
      if [ -z "$flags" ] &&
          ! grep -q '^native: .* fallbacks=0$' "$tmp/native.err"; then
        echo "ci.sh: the native run of $prog fell back to bytecode" >&2
        exit 1
      fi
      for eng in bytecode native; do
        cmp "$tmp/walk.out" "$tmp/$eng.out" &&
          cmp "$tmp/walk.stats" "$tmp/$eng.stats" || {
          echo "ci.sh: $eng differs from walk on $prog ${flags:-(plain)}" >&2
          exit 1; }
      done
    done
  done
  rm -rf "$tmp"
}

# Mapping-optimiser smoke (docs/MAPPING.md): `ucc optimize-map` on the
# Fig 6 workload must keep a replayed mapping — the rewritten program's
# replay must be bit-identical in output and strictly cheaper in modeled
# cycles — and the emitted program must reproduce both when run standalone.
run_optmap_smoke() {
  local dir="$1"
  local ucc="$dir/tools/ucc"
  local src="$root/programs/fig6_shortest_path_on2.uc"
  local tmp; tmp="$(mktemp -d)"
  "$ucc" optimize-map "$src" --emit="$tmp/fig6_opt.uc" >"$tmp/report.txt"
  grep -q "output bit-identical" "$tmp/report.txt" || {
    echo "ci.sh: optimize-map found no replay-validated mapping for fig6" >&2
    exit 1; }
  "$ucc" run "$src" --stats >"$tmp/base.txt" 2>"$tmp/base_stats.txt"
  "$ucc" run "$tmp/fig6_opt.uc" --stats >"$tmp/opt.txt" 2>"$tmp/opt_stats.txt"
  cmp "$tmp/base.txt" "$tmp/opt.txt" || {
    echo "ci.sh: optimize-map changed the output of fig6" >&2; exit 1; }
  local base_cycles opt_cycles
  base_cycles="$(sed -n 's/^cycles=\([0-9]*\).*/\1/p' "$tmp/base_stats.txt")"
  opt_cycles="$(sed -n 's/^cycles=\([0-9]*\).*/\1/p' "$tmp/opt_stats.txt")"
  [ -n "$base_cycles" ] && [ -n "$opt_cycles" ] || {
    echo "ci.sh: could not read modeled cycles from --stats" >&2; exit 1; }
  [ "$opt_cycles" -lt "$base_cycles" ] || {
    echo "ci.sh: optimized fig6 charged $opt_cycles cycles," \
         "baseline $base_cycles — no improvement" >&2
    exit 1; }
  # optimize-map replays printed programs, so the printer must round-trip:
  # every corpus program run from its emit-uc text prints the same output
  # and the same --stats as the program itself.
  local prog
  for prog in "$root"/programs/*.uc; do
    "$ucc" run "$prog" --stats >"$tmp/direct.txt" 2>"$tmp/direct_stats.txt"
    "$ucc" emit-uc "$prog" | "$ucc" run /dev/stdin --stats \
        >"$tmp/printed.txt" 2>"$tmp/printed_stats.txt"
    cmp "$tmp/direct.txt" "$tmp/printed.txt" &&
        cmp "$tmp/direct_stats.txt" "$tmp/printed_stats.txt" || {
      echo "ci.sh: $(basename "$prog") run from its emit-uc text differs" >&2
      exit 1; }
  done
  rm -rf "$tmp"
}

# Fault-injection smoke (docs/ROBUSTNESS.md): injected transient faults
# with checkpointing enabled must leave program output byte-identical —
# recovery costs cycles, never correctness — and the run must actually
# draw faults (a vacuous differential passes nothing).
run_fault_smoke() {
  local dir="$1"
  local ucc="$dir/tools/ucc"
  local faults="memory:p=1e-3;router:p=1e-3;news:p=1e-3,seed=7"
  local tmp; tmp="$(mktemp -d)"
  for prog in fig6_shortest_path_on2 fig7_shortest_path_on3 \
              fig8_grid_obstacle; do
    local src="$root/programs/$prog.uc"
    "$ucc" run "$src" >"$tmp/clean.txt"
    "$ucc" run "$src" --faults="$faults" --checkpoint-every=8 \
        --stats >"$tmp/faulted.txt" 2>"$tmp/stats.txt"
    cmp "$tmp/clean.txt" "$tmp/faulted.txt" || {
      echo "ci.sh: injected faults changed the output of $prog" >&2; exit 1; }
    grep -q "faults=" "$tmp/stats.txt" || {
      echo "ci.sh: $prog drew no faults under injection" >&2; exit 1; }
  done
  # A router fault in the startup map section, before the first capture.
  local eng src="$root/programs/copy_broadcast.uc"
  for eng in walk bytecode native; do
    "$ucc" run "$src" --engine="$eng" >"$tmp/clean.txt"
    "$ucc" run "$src" --engine="$eng" \
        --faults='router:p=2e-3,seed=7,retries=1' --checkpoint-every=8 \
        >"$tmp/faulted.txt" || {
      echo "ci.sh: copy_broadcast did not recover on $eng" >&2; exit 1; }
    cmp "$tmp/clean.txt" "$tmp/faulted.txt" || {
      echo "ci.sh: a map-section fault changed copy_broadcast on $eng" >&2
      exit 1; }
  done
  rm -rf "$tmp"
}

# Durable-checkpoint soak smoke (docs/ROBUSTNESS.md "Durable checkpoints
# & resume"): one randomized SIGKILL + --resume round per configuration,
# including a forced corrupt-newest-generation fallback, asserting the
# resumed output and modeled cycles are bit-identical to an uninterrupted
# run.  tools/soak.sh with default knobs is the long-form version.
run_soak_smoke() {
  local dir="$1"; shift
  BUILD_DIR="$dir" SOAK_KILLS=1 "$@" "$root/tools/soak.sh"
}

run_asan() {
  run_suite "$root/build-asan" -DUC_SANITIZE="address;undefined"
  # Engine parity under the sanitizers: every shipped program on walk,
  # bytecode and native (identical output, globals and CostStats), and the
  # commit cases, among them the per-lane slice writes that once read a
  # freed slice view.
  "$root/build-asan/tests/ucvm/test_ucvm" \
      --gtest_filter='EngineParity*'
  # Int overflow wraps in two's complement on every engine: the program's
  # products, negations, abs, left shifts of negative values and
  # INT64_MIN / -1 overflow, and UBSan stops at the first report.  The
  # native leg builds its kernels with UBSan too, as C++17, where a left
  # shift of a negative value is undefined; the compiler command is part
  # of the cache key, and the leg must dispatch its kernels, not fall back.
  local eng tmp; tmp="$(mktemp -d)"
  local ubsan_cc='c++ -fsanitize=undefined -fno-sanitize-recover=undefined'
  for eng in walk bytecode native; do
    UBSAN_OPTIONS=halt_on_error=1 "$root/build-asan/tools/ucc" run \
        "$root/programs/int_wrap.uc" --engine="$eng" --stats \
        --native-cc="$ubsan_cc" --native-cache-dir="$tmp/cache" \
        2>"$tmp/$eng.err" |
      cmp - "$root/programs/int_wrap.expected" || {
        cat "$tmp/$eng.err" >&2
        echo "ci.sh: programs/int_wrap.uc printed other output on $eng" >&2
        exit 1; }
  done
  grep -q '^native: .* dispatches=[1-9].* fallbacks=0$' "$tmp/native.err" || {
    cat "$tmp/native.err" >&2
    echo "ci.sh: the UBSan-built native kernels of int_wrap did not run" >&2
    exit 1; }
  rm -rf "$tmp"
  run_profile_smoke "$root/build-asan"
  run_engine_smoke "$root/build-asan"
  run_fault_smoke "$root/build-asan"
  run_optmap_smoke "$root/build-asan"
  # Bounded under the sanitizers: one program, one host thread, one kill.
  run_soak_smoke "$root/build-asan" \
      env SOAK_PROGS=fig6_shortest_path_on2 SOAK_THREADS=1
}

# ThreadSanitizer lane: every primitive and every engine's lane loop split
# VP/lane ranges across pool threads, so the pool and the host-thread
# parity suites run under TSan.  The full ctest tier under TSan is slow;
# this lane focuses on the suites that actually fork and join threads: the
# cm pool / ops / machine tests (including the 1-vs-4-thread ops
# differential), the engine parity suite (paper programs at 1 and 4 host
# threads under faults and checkpoints), and the map-remap fault recovery
# differential at 4 threads.
run_tsan() {
  cmake -B "$root/build-tsan" -S "$root" -DUC_SANITIZE="thread"
  cmake --build "$root/build-tsan" -j
  "$root/build-tsan/tests/cm/test_cm" \
      --gtest_filter='ThreadPool*:Threads/*:Machine*:Ops*'
  # EngineParity.SeqAndStarSolveRoundsOnTwoThreads covers the lane spaces,
  # lane lists and value buffers that seq / *solve rounds reuse while pool
  # workers write them.  test_ucvm_alloc checks the same reuse by counting
  # allocations, which needs its own operator new, so TSan builds omit it.
  # The EngineParity.Commit* cases run every engine at 4 threads, where
  # each pool worker fills its arena's write log (kernel::Engine::WriteLog)
  # in place, native kernels included, before the issuing thread commits
  # the logs in lane order.  The EngineParity.Block* cases run the block
  # executor's per-worker arenas (register columns, block lanes, lane-major
  # write slots) at 4 threads; EngineParity.CallLocalArraysOnFourThreads
  # checks that lanes whose calls declare arrays stay off the pool workers,
  # EngineParity.CallsFromLanesOnFourThreads that concurrent per-lane
  # calls keep their return values apart, and
  # EngineParity.SolveEquationPrintsOnFourThreads that the lanes of a solve
  # equation print into their own buffers.
  "$root/build-tsan/tests/ucvm/test_ucvm" \
      --gtest_filter='EngineParity*:FaultRecovery.MapRemap*'
}

# The Release lane rebuilds the library, ucc and the engine bench from
# scratch and fails on any compiler warning: every translation unit it
# compiles is the repository's own, so a warning printed from a system
# header was still raised by this code.
run_bench_smoke() {
  cmake -B "$root/build-release" -S "$root" -DCMAKE_BUILD_TYPE=Release
  local log; log="$(mktemp)"
  # Every target, the tests included: optimised builds warn where the
  # plain one does not (GCC's -Wrestrict, say).
  cmake --build "$root/build-release" -j --clean-first 2>&1 | tee "$log"
  if grep -q 'warning:' "$log"; then
    echo "ci.sh: the Release build printed compiler warnings" >&2
    rm -f "$log"
    exit 1
  fi
  rm -f "$log"
  # vm_engine runs fig6/7/8 from the programs/ corpus and exits nonzero
  # unless all engine rows carry equal output and equal CostStats, cycles
  # included.
  "$root/build-release/bench/vm_engine" --smoke
}

# Native-tier perf gate (docs/VM.md "Native tier"): rerun the fig8 engine
# rows at full size and compare the native row's host time against the
# checked-in BENCH_vm.json baseline, failing on a >15% regression.  Parity
# (output + CostStats) is already enforced by vm_engine itself, which
# exits nonzero if the native row deviates from the walk.  A host without a working C++ toolchain records no
# native row at all (never bytecode timings passed off as native); the
# gate then skips, loudly.
run_native_gate() {
  cmake -B "$root/build-release" -S "$root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$root/build-release" -j --target vm_engine
  local tmp; tmp="$(mktemp -d)"
  # The checked-in baseline is itself a best-of run, so a single noisy
  # measurement on a loaded host can overshoot the limit without any real
  # regression.  Up to three attempts; the gate only fails if every one
  # exceeds the limit (exit 1 = over limit, retryable; exit 2 = broken
  # configuration, fail immediately).
  local attempt rc
  for attempt in 1 2 3; do
    "$root/build-release/bench/vm_engine" --only=fig8 --rows=engines \
        --json="$tmp/native.json"
    rc=0
    python3 - "$root/BENCH_vm.json" "$tmp/native.json" <<'PYEOF' || rc=$?
import json, sys

def native_ms(path):
    for row in json.load(open(path)):
        if (row["program"] == "fig8_grid_obstacle"
                and row["engine"] == "native"):
            return row["host_ms"]
    return None

base = native_ms(sys.argv[1])
cur = native_ms(sys.argv[2])
if cur is None:
    print("ci.sh: NOTICE: no working native toolchain on this host; "
          "skipping the native-tier perf gate", file=sys.stderr)
    sys.exit(0)
if base is None:
    print("ci.sh: BENCH_vm.json has no fig8 native baseline; "
          "rerun tools/bench.sh", file=sys.stderr)
    sys.exit(2)
limit = base * 1.15
print(f"ci.sh: native gate: fig8 native host_ms {cur:.3f} "
      f"vs baseline {base:.3f} (limit {limit:.3f})")
sys.exit(1 if cur > limit else 0)
PYEOF
    [ "$rc" -eq 0 ] && break
    [ "$rc" -eq 1 ] && [ "$attempt" -lt 3 ] && continue
    echo "ci.sh: native tier regressed more than 15% vs the BENCH_vm.json" \
         "fig8 baseline on every attempt" >&2
    rm -rf "$tmp"
    exit 1
  done
  rm -rf "$tmp"
}

case "$mode" in
  plain)
    run_suite "$root/build"
    run_profile_smoke "$root/build"
    run_engine_smoke "$root/build"
    run_fault_smoke "$root/build"
    run_optmap_smoke "$root/build"
    run_soak_smoke "$root/build" env SOAK_ENGINES="walk bytecode native"
    ;;
  asan)  run_asan ;;
  tsan)  run_tsan ;;
  bench) run_bench_smoke ;;
  native) run_native_gate ;;
  all)
    run_suite "$root/build"
    run_profile_smoke "$root/build"
    run_engine_smoke "$root/build"
    run_fault_smoke "$root/build"
    run_optmap_smoke "$root/build"
    run_soak_smoke "$root/build" env SOAK_ENGINES="walk bytecode native"
    run_asan
    run_tsan
    run_bench_smoke
    run_native_gate
    ;;
  *)
    echo "usage: tools/ci.sh [plain|asan|tsan|bench|native|all]" >&2
    exit 2
    ;;
esac
