// VM engine comparison: tree-walk vs bytecode lane kernels vs native
// compiled kernels on the paper workloads (Figs 6-8).  Each program runs a
// few times per engine on fresh simulated machines (best-of-N wall clock,
// to shrug off scheduler noise); we report host wall-clock and modeled
// cycles and fail (nonzero exit) if the engines disagree on output or on
// any CostStats counter: the engine is a host-speed choice only.
//
//   vm_engine [--smoke] [--json=PATH] [--only=SUBSTR] [--rows=engines]
//
// --smoke shrinks the problem sizes (for CI); --json writes the rows as a
// JSON array (tools/bench.sh uses this to produce BENCH_vm.json).
// --only runs just the workloads whose name contains SUBSTR, and
// --rows=engines keeps only the engine-comparison rows (walk, bytecode,
// native) — tools/ci.sh combines the two for its native performance gate.
// Hosts without a working C++ toolchain skip the native rows with a loud
// notice instead of failing.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "cm/fault.hpp"
#include "corpus.hpp"
#include "uc/uc.hpp"

namespace {

struct Row {
  std::string program;
  std::string engine;
  double host_ms = 0.0;
  std::uint64_t cycles = 0;
  uc::cm::CostStats stats;
  std::string output;
  bool skipped = false;  // native: no working toolchain at runtime
};

Row run_one(const std::string& name, const std::string& source,
            uc::vm::ExecEngine engine, int reps) {
  auto program = uc::Program::compile(name + ".uc", source);
  Row row;
  row.program = name;
  row.engine = engine == uc::vm::ExecEngine::kWalk     ? "walk"
               : engine == uc::vm::ExecEngine::kNative ? "native"
                                                       : "bytecode";
  for (int r = 0; r < reps; ++r) {
    uc::cm::Machine machine;
    uc::vm::ExecOptions eopts;
    eopts.engine = engine;
    uc::bench::WallTimer timer;
    auto result = program.run_on(machine, eopts);
    const double ms = timer.elapsed_ms();
    if (engine == uc::vm::ExecEngine::kNative &&
        result.native_dispatches() == 0) {
      // Nothing ran natively — no toolchain, or every statement was
      // declined.  Mark the row skipped rather than reporting bytecode
      // timings under the native label.
      row.skipped = true;
      return row;
    }
    if (r == 0 || ms < row.host_ms) row.host_ms = ms;
    row.stats = result.stats();
    row.cycles = row.stats.cycles;
    row.output = result.output();
  }
  return row;
}

// Robustness-layer rows (docs/ROBUSTNESS.md).  "bytecode-ckpt" measures
// pure checkpointing overhead (fault-free, so output must still match);
// "bytecode-faulted" adds injected transient faults with recovery, whose
// extra retry/backoff cycles are the point of the row — it is excluded
// from the cycle-agreement check but must keep the output byte-identical.
Row run_one_robust(const std::string& name, const std::string& source,
                   bool with_faults, int reps) {
  auto program = uc::Program::compile(name + ".uc", source);
  Row row;
  row.program = name;
  row.engine = with_faults ? "bytecode-faulted" : "bytecode-ckpt";
  for (int r = 0; r < reps; ++r) {
    uc::cm::MachineOptions mopts;
    if (with_faults) {
      mopts.faults = uc::cm::parse_fault_spec(
          "memory:p=1e-4;router:p=1e-4;news:p=1e-4,seed=7");
    }
    uc::cm::Machine machine(mopts);
    uc::vm::ExecOptions eopts;
    eopts.engine = uc::vm::ExecEngine::kBytecode;
    eopts.checkpoint_every = 8;
    uc::bench::WallTimer timer;
    auto result = program.run_on(machine, eopts);
    const double ms = timer.elapsed_ms();
    if (r == 0 || ms < row.host_ms) row.host_ms = ms;
    row.cycles = result.stats().cycles;
    row.output = result.output();
  }
  return row;
}

// Durable-checkpoint row (docs/ROBUSTNESS.md "Durable checkpoints &
// resume"): the in-memory checkpoint row plus atomic snapshot persistence
// to a scratch directory at every capture.  Durability is host-side I/O
// only, so the row must charge exactly the same modeled cycles as
// "bytecode-ckpt" and keep the output byte-identical; its host_ms delta
// against that row is the encode + fsync + rename cost.
Row run_one_durable(const std::string& name, const std::string& source,
                    int reps) {
  auto program = uc::Program::compile(name + ".uc", source);
  Row row;
  row.program = name;
  row.engine = "bytecode-durable-ckpt";
  for (int r = 0; r < reps; ++r) {
    char dir_template[] = "/tmp/uc-bench-ckpt-XXXXXX";
    const char* dir = ::mkdtemp(dir_template);
    uc::cm::Machine machine;
    uc::vm::ExecOptions eopts;
    eopts.engine = uc::vm::ExecEngine::kBytecode;
    eopts.checkpoint_every = 8;
    if (dir != nullptr) eopts.checkpoint_dir = dir;
    uc::bench::WallTimer timer;
    auto result = program.run_on(machine, eopts);
    const double ms = timer.elapsed_ms();
    if (r == 0 || ms < row.host_ms) row.host_ms = ms;
    row.cycles = result.stats().cycles;
    row.output = result.output();
    if (dir != nullptr) std::filesystem::remove_all(dir);
  }
  return row;
}

// The bytecode engine with per-site profiling attached (docs/PROFILING.md):
// the row's delta against the plain bytecode row is the profiler's host
// overhead.  Cycles and output must not move at all.
Row run_one_profiled(const std::string& name, const std::string& source,
                     int reps) {
  auto program = uc::Program::compile(name + ".uc", source);
  Row row;
  row.program = name;
  row.engine = "bytecode-profiled";
  for (int r = 0; r < reps; ++r) {
    uc::ProfileOptions popts;
    popts.exec.engine = uc::vm::ExecEngine::kBytecode;
    popts.join_static = false;  // time the attribution, not the analysis
    uc::bench::WallTimer timer;
    auto prof = program.profile(popts);
    const double ms = timer.elapsed_ms();
    if (r == 0 || ms < row.host_ms) row.host_ms = ms;
    row.stats = prof.run.stats();
    row.cycles = row.stats.cycles;
    row.output = prof.run.output();
  }
  return row;
}

// The mapping optimiser's output (docs/MAPPING.md): run `uc::optimize_map`
// once, then execute the rewritten program (or the original, when the search
// finds nothing better at this problem size) on the plain bytecode engine.
// The row must keep the output byte-identical to the bytecode row and never
// charge more modeled cycles — the optimiser keeps only replayed candidates
// that promise exactly that.
Row run_one_optmap(const std::string& name, const std::string& source,
                   int reps) {
  uc::OptimizeMapOptions oopts;
  oopts.exec.engine = uc::vm::ExecEngine::kBytecode;
  auto opt = uc::optimize_map(name + ".uc", source, oopts);
  const std::string& best = opt.improved ? opt.optimized_source : source;
  Row row = run_one(name, best, uc::vm::ExecEngine::kBytecode, reps);
  row.program = name;
  row.engine = "bytecode-optmap";
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool engines_only = false;
  std::string json_path;
  std::string only;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[k], "--json=", 7) == 0) {
      json_path = argv[k] + 7;
    } else if (std::strncmp(argv[k], "--only=", 7) == 0) {
      only = argv[k] + 7;
    } else if (std::strcmp(argv[k], "--rows=engines") == 0) {
      engines_only = true;
    } else {
      std::fprintf(stderr, "vm_engine: unknown option '%s'\n", argv[k]);
      return 2;
    }
  }

  struct Workload {
    std::string name;
    std::string source;
  };
  const std::int64_t fig6_n = smoke ? 8 : 32;
  const std::int64_t fig7_n = smoke ? 8 : 24;
  const std::int64_t fig8_n = smoke ? 8 : 24;
  const std::vector<Workload> workloads = {
      {"fig6_shortest_path_on2",
       corpus::source("fig6_shortest_path_on2", {{"N", fig6_n}})},
      {"fig7_shortest_path_on3",
       corpus::source("fig7_shortest_path_on3",
                      {{"N", fig7_n}, {"LOGN", corpus::log2_ceil(fig7_n)}})},
      {"fig8_grid_obstacle",
       corpus::source("fig8_grid_obstacle", {{"R", fig8_n}, {"C", fig8_n}})},
  };

  uc::bench::header("VM engines: tree walk vs bytecode lane kernels",
                    "program                    engine           host(ms)   "
                    "modeled cycles   speedup  agree");

  const int reps = smoke ? 1 : 3;
  std::vector<Row> rows;
  bool all_agree = true;
  bool native_skipped = false;
  for (const auto& w : workloads) {
    if (!only.empty() && w.name.find(only) == std::string::npos) continue;
    Row walk = run_one(w.name, w.source, uc::vm::ExecEngine::kWalk, reps);
    Row byte = run_one(w.name, w.source, uc::vm::ExecEngine::kBytecode, reps);
    // Native compiled kernels (docs/VM.md "Native tier"): only host_ms may
    // move.
    Row native =
        run_one(w.name, w.source, uc::vm::ExecEngine::kNative, reps);
    native_skipped = native_skipped || native.skipped;
    bool agree = byte.output == walk.output && byte.stats == walk.stats &&
                 (native.skipped || (native.output == walk.output &&
                                     native.stats == walk.stats));
    const double speedup = byte.host_ms > 0 ? walk.host_ms / byte.host_ms : 0;
    std::printf("%-26s %-15s %10.2f %16llu %9s  %s\n", w.name.c_str(),
                "walk", walk.host_ms,
                static_cast<unsigned long long>(walk.cycles), "", "");
    std::printf("%-26s %-15s %10.2f %16llu %8.2fx  %s\n", w.name.c_str(),
                "bytecode", byte.host_ms,
                static_cast<unsigned long long>(byte.cycles), speedup, "");
    if (native.skipped) {
      std::printf("%-26s %-15s   (skipped: no native toolchain)\n",
                  w.name.c_str(), "native");
    } else {
      const double nspeedup =
          native.host_ms > 0 ? byte.host_ms / native.host_ms : 0;
      std::printf("%-26s %-15s %10.2f %16llu %8.2fx  %s\n", w.name.c_str(),
                  "native", native.host_ms,
                  static_cast<unsigned long long>(native.cycles), nspeedup,
                  "");
    }
    rows.push_back(walk);
    rows.push_back(byte);
    if (!native.skipped) rows.push_back(native);

    if (!engines_only) {
      Row prof = run_one_profiled(w.name, w.source, reps);
      Row ckpt =
          run_one_robust(w.name, w.source, /*with_faults=*/false, reps);
      Row durable = run_one_durable(w.name, w.source, reps);
      Row faulted =
          run_one_robust(w.name, w.source, /*with_faults=*/true, reps);
      Row optmap = run_one_optmap(w.name, w.source, reps);
      // Checkpoint captures and fault recovery cost extra modeled cycles
      // by design, so those rows are held only to output equality.
      agree = agree && prof.output == byte.output &&
              prof.stats == byte.stats && ckpt.output == byte.output &&
              // Durable persistence is host-side I/O only: same modeled
              // cycles as the in-memory checkpoint row.
              durable.output == byte.output &&
              durable.cycles == ckpt.cycles &&
              faulted.output == byte.output && optmap.output == byte.output &&
              optmap.cycles <= byte.cycles;
      std::printf("%-26s %-15s %10.2f %16llu %9s  %s\n", w.name.c_str(),
                  "+profile", prof.host_ms,
                  static_cast<unsigned long long>(prof.cycles), "", "");
      std::printf("%-26s %-15s %10.2f %16llu %9s  %s\n", w.name.c_str(),
                  "+ckpt", ckpt.host_ms,
                  static_cast<unsigned long long>(ckpt.cycles), "", "");
      std::printf("%-26s %-15s %10.2f %16llu %9s  %s\n", w.name.c_str(),
                  "+durable-ckpt", durable.host_ms,
                  static_cast<unsigned long long>(durable.cycles), "", "");
      std::printf("%-26s %-15s %10.2f %16llu %9s  %s\n", w.name.c_str(),
                  "+faults", faulted.host_ms,
                  static_cast<unsigned long long>(faulted.cycles), "", "");
      std::printf("%-26s %-15s %10.2f %16llu %9s  %s\n", w.name.c_str(),
                  "+optmap", optmap.host_ms,
                  static_cast<unsigned long long>(optmap.cycles), "", "");
      rows.push_back(prof);
      rows.push_back(ckpt);
      rows.push_back(durable);
      rows.push_back(faulted);
      rows.push_back(optmap);
    }
    if (!agree) std::printf("%-26s ENGINES DISAGREE\n", w.name.c_str());
    all_agree = all_agree && agree;
  }
  if (native_skipped) {
    std::fprintf(stderr,
                 "vm_engine: NOTICE: native tier unavailable on this host "
                 "(no working C++ toolchain); native rows skipped\n");
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "vm_engine: cannot write '%s'\n",
                   json_path.c_str());
      return 2;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "  {\"program\": \"%s\", \"engine\": \"%s\", "
                   "\"host_ms\": %.3f, \"cycles\": %llu}%s\n",
                   rows[i].program.c_str(), rows[i].engine.c_str(),
                   rows[i].host_ms,
                   static_cast<unsigned long long>(rows[i].cycles),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

  if (!all_agree) {
    std::fprintf(stderr,
                 "vm_engine: engines disagree on output or CostStats\n");
    return 1;
  }
  return 0;
}
