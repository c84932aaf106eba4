// ucc — the UC compiler/runner command-line tool: compile a .uc file and
// run, profile, time, check, analyze, remap or translate it on a simulated
// CM-2.  `usage()` below lists the commands and options; running ucc with
// no arguments prints it.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "uc/uc.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: ucc <command> <file.uc> [options]\n"
      "\n"
      "commands:\n"
      "  run         compile and execute on a simulated CM-2\n"
      "  profile     run with per-site attribution; print the hot-site\n"
      "              table (modeled cycles, host ms, op mix, static join)\n"
      "  bench       time the program under walk, bytecode and native\n"
      "  check       report diagnostics (plus analysis warnings)\n"
      "  analyze     static analysis: par-block interference and\n"
      "              communication-pattern classification\n"
      "  optimize-map  dependence-proved mapping search; validates the\n"
      "              chosen map section by replay (docs/MAPPING.md)\n"
      "  emit-cstar  print the C* translation\n"
      "  emit-uc     print the canonical UC rendering\n"
      "\n"
      "options:\n"
      "  --stats               print machine statistics after a run\n"
      "  --trace               print the Paris-style instruction trace\n"
      "  --engine=<walk|bytecode|native>  VM execution engine (default\n"
      "                        bytecode; native compiles lane kernels to a\n"
      "                        cached .so with the host toolchain)\n"
      "  --native-cache-dir=<dir>  native: compiled-kernel cache directory\n"
      "                        (default $UC_NATIVE_CACHE_DIR or /tmp)\n"
      "  --native-cc=<cc>      native: compiler driver (default\n"
      "                        $UC_NATIVE_CC or c++)\n"
      "  --repeat=<n>          bench: median of n timed runs + warmup\n"
      "  --json=<file>         bench: write the per-engine table as JSON\n"
      "  --seed=<n>            machine RNG seed (default 1)\n"
      "  --procs=<n>           physical processors (default 16384)\n"
      "  --threads=<n>         host threads for the runtime\n"
      "  --no-mappings         ignore map sections\n"
      "  --no-procopt          disable the processor optimisation\n"
      "  --lower-solve         lower solve to *par at the source level\n"
      "  --rewrite-permutes    apply affine permutes as subscript rewrites\n"
      "  --fold / --no-fold    constant folding (default on)\n"
      "  --no-notes            analyze: drop UC-Axxx notes\n"
      "  --no-summary          analyze: drop the communication summary\n"
      "  --werror              analyze: nonzero exit on any warning\n"
      "  --emit=<file>         optimize-map: write the rewritten program\n"
      "  --beam=<n>            optimize-map: beam width (default 4)\n"
      "  --no-validate         optimize-map: skip the replay validation\n"
      "  --profile[=out.json]  run: profile; bare prints the table to\n"
      "                        stderr, a path writes the per-site JSON\n"
      "  --trace-json=<file>   write Chrome trace-event JSON\n"
      "  --json=<file>         profile: also write the per-site JSON\n"
      "  --top=<n>             profile: print only the n hottest sites\n"
      "  --no-static           profile: skip the static-analysis join\n"
      "  --faults=<spec>       inject seeded transient faults (e.g.\n"
      "                        router:p=1e-4;news:p=1e-5,seed=42)\n"
      "  --checkpoint-every=<n>  capture recovery checkpoints every n\n"
      "                        statements (0 = off)\n"
      "  --max-replays=<n>     checkpoint replay budget (default 64)\n"
      "  --checkpoint-dir=<dir>  persist checkpoints durably in <dir>\n"
      "                        (requires --checkpoint-every)\n"
      "  --checkpoint-keep=<n> on-disk generations to keep (default 3)\n"
      "  --resume[=<dir>]      restore the newest intact snapshot and\n"
      "                        finish the run (skips corrupt generations)\n"
      "  --die-at=<n>          testing: SIGKILL before the n-th statement\n"
      "  --timeout=<secs>      wall-clock watchdog (abort cleanly)\n"
      "  --max-field-mb=<n>    cap total CM field memory at n MiB\n"
      "  --max-iterations=<n>  loop iteration limit (0 = unlimited)\n");
  return 2;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

struct Options {
  std::string command;
  std::string file;
  bool stats = false;
  bool trace = false;
  bool werror = false;
  bool profile = false;          // run --profile (table to stderr)
  bool join_static = true;       // --no-static turns the join column off
  std::string profile_json;      // --profile=<out.json>
  std::string sites_json;        // --json=<file> (profile/analyze/opt-map)
  std::string trace_json;        // --trace-json=<file>
  std::string emit_path;         // --emit=<file> (optimize-map)
  bool validate = true;          // --no-validate (optimize-map)
  std::uint64_t beam = 4;        // --beam=<n> (optimize-map)
  std::uint64_t top = 0;         // --top=<n>, 0 = all hot sites
  std::uint64_t repeat = 1;      // bench: timed runs per row
  uc::cm::MachineOptions machine;
  uc::vm::ExecOptions exec;
  uc::CompileOptions compile;
  uc::AnalyzeOptions analyze;
};

bool parse_args(int argc, char** argv, Options& opts) {
  if (argc < 3) return false;
  opts.command = argv[1];
  opts.file = argv[2];
  bool bad_value = false;
  for (int k = 3; k < argc; ++k) {
    std::string arg = argv[k];
    // Parses `<prefix><n>`, rejecting empty, non-numeric, trailing-garbage
    // and out-of-range values; zero is rejected unless `allow_zero` (a
    // machine with 0 processors or a runtime with 0 threads is an error the
    // simulator would otherwise hit much later, far from the typo).
    auto int_value = [&](const char* prefix, std::uint64_t& out,
                         bool allow_zero = false) {
      if (arg.rfind(prefix, 0) != 0) return false;
      const char* s = arg.c_str() + std::strlen(prefix);
      char* end = nullptr;
      errno = 0;
      const std::uint64_t parsed = std::strtoull(s, &end, 10);
      if (*s == '\0' || end == nullptr || *end != '\0' || errno == ERANGE ||
          *s == '-' || (!allow_zero && parsed == 0)) {
        std::fprintf(stderr,
                     "ucc: invalid value in '%s' (expected a %s integer)\n",
                     arg.c_str(), allow_zero ? "non-negative" : "positive");
        bad_value = true;
        return true;  // the prefix matched; stop the option search
      }
      out = parsed;
      return true;
    };
    auto str_value = [&](const char* prefix, std::string& out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      out = arg.substr(std::strlen(prefix));
      if (out.empty()) {
        std::fprintf(stderr, "ucc: missing path in '%s'\n", arg.c_str());
        bad_value = true;
      }
      return true;
    };
    // Parses `<prefix><x>` as a non-negative floating-point value.
    auto float_value = [&](const char* prefix, double& out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      const char* s = arg.c_str() + std::strlen(prefix);
      char* end = nullptr;
      errno = 0;
      const double parsed = std::strtod(s, &end);
      if (*s == '\0' || end == nullptr || *end != '\0' || errno == ERANGE ||
          parsed < 0.0) {
        std::fprintf(stderr,
                     "ucc: invalid value in '%s' (expected a non-negative "
                     "number)\n",
                     arg.c_str());
        bad_value = true;
        return true;
      }
      out = parsed;
      return true;
    };
    std::uint64_t v = 0;
    std::string sv;
    if (arg == "--stats") {
      opts.stats = true;
    } else if (arg == "--trace") {
      opts.trace = true;
      opts.machine.record_paris_trace = true;
    } else if (arg == "--engine=walk") {
      opts.exec.engine = uc::vm::ExecEngine::kWalk;
    } else if (arg == "--engine=bytecode") {
      opts.exec.engine = uc::vm::ExecEngine::kBytecode;
    } else if (arg == "--engine=native") {
      opts.exec.engine = uc::vm::ExecEngine::kNative;
    } else if (str_value("--native-cache-dir=", opts.exec.native_cache_dir)) {
    } else if (str_value("--native-cc=", opts.exec.native_cc)) {
    } else if (int_value("--repeat=", v)) {
      opts.repeat = v;
    } else if (int_value("--seed=", v, /*allow_zero=*/true)) {
      opts.machine.seed = v;
    } else if (int_value("--procs=", v)) {
      opts.machine.cost.physical_processors = v;
    } else if (int_value("--threads=", v)) {
      opts.machine.host_threads = static_cast<unsigned>(v);
    } else if (str_value("--faults=", sv)) {
      try {
        opts.machine.faults = uc::cm::parse_fault_spec(sv);
      } catch (const uc::support::ApiError& e) {
        std::fprintf(stderr, "ucc: %s\n", e.what());
        bad_value = true;
      }
    } else if (int_value("--checkpoint-every=", v, /*allow_zero=*/true)) {
      opts.exec.checkpoint_every = v;
    } else if (int_value("--max-replays=", v)) {
      opts.exec.max_replays = v;
    } else if (str_value("--checkpoint-dir=", sv)) {
      opts.exec.checkpoint_dir = sv;
    } else if (int_value("--checkpoint-keep=", v)) {
      opts.exec.checkpoint_keep = v;
    } else if (arg == "--resume") {
      opts.exec.resume = true;
    } else if (str_value("--resume=", sv)) {
      opts.exec.resume = true;
      opts.exec.checkpoint_dir = sv;
    } else if (int_value("--die-at=", v)) {
      opts.exec.die_at_statement = v;
    } else if (float_value("--timeout=", opts.exec.timeout_seconds)) {
    } else if (int_value("--max-field-mb=", v)) {
      opts.machine.max_field_bytes = v << 20;
    } else if (int_value("--max-iterations=", v, /*allow_zero=*/true)) {
      opts.exec.max_iterations = static_cast<std::int64_t>(v);
    } else if (arg == "--profile") {
      opts.profile = true;
    } else if (str_value("--profile=", opts.profile_json)) {
      opts.profile = true;
    } else if (str_value("--trace-json=", opts.trace_json)) {
    } else if (str_value("--json=", opts.sites_json)) {
    } else if (str_value("--emit=", opts.emit_path)) {
    } else if (arg == "--no-validate") {
      opts.validate = false;
    } else if (int_value("--beam=", v)) {
      opts.beam = v;
    } else if (int_value("--top=", v)) {
      opts.top = v;
    } else if (arg == "--no-static") {
      opts.join_static = false;
    } else if (arg == "--no-mappings") {
      opts.exec.apply_mappings = false;
    } else if (arg == "--no-procopt") {
      opts.exec.processor_optimization = false;
    } else if (arg == "--lower-solve") {
      opts.compile.lower_solve = true;
    } else if (arg == "--rewrite-permutes") {
      opts.compile.rewrite_permutes = true;
    } else if (arg == "--fold") {
      opts.compile.fold_constants = true;
    } else if (arg == "--no-fold") {
      opts.compile.fold_constants = false;
    } else if (arg == "--no-notes") {
      opts.analyze.include_notes = false;
    } else if (arg == "--no-summary") {
      opts.analyze.include_summary = false;
    } else if (arg == "--werror") {
      opts.werror = true;
    } else {
      std::fprintf(stderr, "ucc: unknown option '%s'\n", arg.c_str());
      return false;
    }
    if (bad_value) return false;
  }
  // Durable-checkpoint option consistency is checked here, where the
  // message can name the flags, rather than deep in the VM where only the
  // ExecOptions fields are visible (docs/ROBUSTNESS.md).
  if (opts.exec.resume && opts.exec.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "ucc: --resume needs a checkpoint directory; pass "
                 "--resume=<dir> or add --checkpoint-dir=<dir>\n");
    return false;
  }
  if (!opts.exec.checkpoint_dir.empty() &&
      opts.exec.checkpoint_every == 0) {
    std::fprintf(stderr,
                 "ucc: --checkpoint-dir requires --checkpoint-every=<n> "
                 "with n > 0 (durable snapshots are written at in-memory "
                 "capture points, docs/ROBUSTNESS.md)\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return usage();

  std::string source;
  if (!read_file(opts.file, source)) {
    std::fprintf(stderr, "ucc: cannot read '%s'\n", opts.file.c_str());
    return 2;
  }

  // Durable checkpoints refuse to resume a snapshot written by a different
  // program or under different source-level compilation flags; the hash
  // binds the snapshot to this exact input (docs/ROBUSTNESS.md).
  {
    std::uint64_t h = uc::support::fnv1a(source);
    h = uc::support::fnv1a_u64(
        (opts.compile.lower_solve ? 1ull : 0ull) |
            (opts.compile.rewrite_permutes ? 2ull : 0ull) |
            (opts.compile.fold_constants ? 4ull : 0ull),
        h);
    opts.exec.program_hash = h;
  }
  if (!opts.exec.checkpoint_dir.empty()) {
    opts.exec.log = [](const std::string& line) {
      std::fprintf(stderr, "%s\n", line.c_str());
    };
  }

  try {
    if (opts.command == "check") {
      auto diags = uc::Program::check(opts.file, source);
      if (!diags.empty()) {
        std::fputs(diags.c_str(), stderr);
        return 1;
      }
      // Surface analysis warnings (not notes) without failing the check.
      uc::AnalyzeOptions aopts = opts.analyze;
      aopts.include_notes = false;
      aopts.include_summary = false;
      aopts.machine = opts.machine;
      auto analysis = uc::analyze(opts.file, source, aopts);
      if (analysis.warnings > 0) std::fputs(analysis.text.c_str(), stderr);
      std::printf("%s: ok\n", opts.file.c_str());
      return 0;
    }

    if (opts.command == "analyze") {
      uc::AnalyzeOptions aopts = opts.analyze;
      aopts.machine = opts.machine;
      auto analysis = uc::analyze(opts.file, std::move(source), aopts);
      if (!analysis.compiled) {
        std::fputs(analysis.text.c_str(), stderr);
        return 1;
      }
      std::fputs(analysis.text.c_str(), stdout);
      std::printf("%zu errors, %zu warnings, %zu notes\n", analysis.errors,
                  analysis.warnings, analysis.notes);
      if (!opts.sites_json.empty() &&
          !write_file(opts.sites_json, analysis.json)) {
        std::fprintf(stderr, "ucc: cannot write '%s'\n",
                     opts.sites_json.c_str());
        return 2;
      }
      if (analysis.errors > 0) return 1;
      if (opts.werror && analysis.warnings > 0) return 1;
      return 0;
    }

    if (opts.command == "optimize-map") {
      uc::OptimizeMapOptions mopts;
      mopts.compile = opts.compile;
      mopts.machine = opts.machine;
      mopts.exec = opts.exec;
      mopts.beam_width = static_cast<std::size_t>(opts.beam);
      mopts.validate = opts.validate;
      auto result = uc::optimize_map(opts.file, std::move(source), mopts);
      if (!result.compiled) {
        std::fputs(result.text.c_str(), stderr);
        return 1;
      }
      std::fputs(result.text.c_str(), stdout);
      if (!opts.sites_json.empty() &&
          !write_file(opts.sites_json, result.json())) {
        std::fprintf(stderr, "ucc: cannot write '%s'\n",
                     opts.sites_json.c_str());
        return 2;
      }
      if (!opts.emit_path.empty()) {
        if (result.optimized_source.empty()) {
          std::fprintf(stderr,
                       "ucc: no improving mapping found; nothing to emit\n");
          return 1;
        }
        if (!write_file(opts.emit_path, result.optimized_source)) {
          std::fprintf(stderr, "ucc: cannot write '%s'\n",
                       opts.emit_path.c_str());
          return 2;
        }
      }
      return 0;
    }

    auto program =
        uc::Program::compile(opts.file, std::move(source), opts.compile);
    if (opts.command == "emit-cstar") {
      std::fputs(program.to_cstar_source().c_str(), stdout);
      return 0;
    }
    if (opts.command == "emit-uc") {
      std::fputs(program.to_uc_source().c_str(), stdout);
      return 0;
    }
    if (opts.command == "bench") {
      // Time the same program under each engine on fresh machines.  The
      // engine is a host-speed choice only, so every row must agree on the
      // output and on every CostStats counter.
      struct Row {
        const char* name;
        uc::vm::ExecEngine engine;
        double ms = 0.0;
        uc::cm::CostStats stats{};
        std::string output{};
        bool skipped = false;  // native: toolchain unavailable
      };
      Row rows[3] = {{"walk", uc::vm::ExecEngine::kWalk},
                     {"bytecode", uc::vm::ExecEngine::kBytecode},
                     {"native", uc::vm::ExecEngine::kNative}};
      for (auto& row : rows) {
        uc::vm::ExecOptions eopts = opts.exec;
        eopts.engine = row.engine;
        // --repeat=N: one untimed warmup, then the median of N timed runs
        // (every run is a fresh machine; outputs and cycles are
        // deterministic, only host time varies).
        const std::uint64_t runs = opts.repeat;
        std::vector<double> times;
        times.reserve(static_cast<std::size_t>(runs));
        for (std::uint64_t r = (runs > 1 ? 0 : 1); r <= runs; ++r) {
          uc::cm::Machine machine(opts.machine);
          const auto t0 = std::chrono::steady_clock::now();
          auto result = program.run_on(machine, eopts);
          const auto t1 = std::chrono::steady_clock::now();
          if (row.engine == uc::vm::ExecEngine::kNative &&
              result.native_dispatches() == 0) {
            // Nothing actually ran natively (no working toolchain, or the
            // emitter declined every statement): report the row as skipped
            // rather than passing off bytecode timings as native.
            row.skipped = true;
            break;
          }
          if (r == 0) continue;  // warmup
          times.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
          row.stats = result.stats();
          row.output = result.output();
        }
        std::sort(times.begin(), times.end());
        const std::size_t n = times.size();
        if (n > 0) {
          row.ms = (n % 2 != 0) ? times[n / 2]
                                : 0.5 * (times[n / 2 - 1] + times[n / 2]);
        }
      }
      for (const auto& row : rows) {
        if (row.skipped) {
          std::printf("%-15s    (skipped: no native toolchain)\n", row.name);
          continue;
        }
        std::printf("%-15s %10.3f ms  %12llu cycles\n", row.name, row.ms,
                    static_cast<unsigned long long>(row.stats.cycles));
      }
      if (!opts.sites_json.empty()) {
        std::string json = "[\n";
        bool first = true;
        for (const auto& row : rows) {
          if (row.skipped) continue;
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "%s  {\"engine\": \"%s\", \"host_ms\": %.3f, "
                        "\"cycles\": %llu}",
                        first ? "" : ",\n", row.name, row.ms,
                        static_cast<unsigned long long>(row.stats.cycles));
          json += buf;
          first = false;
        }
        json += "\n]\n";
        if (!write_file(opts.sites_json, json)) {
          std::fprintf(stderr, "ucc bench: cannot write '%s'\n",
                       opts.sites_json.c_str());
          return 1;
        }
      }
      for (const auto& row : rows) {
        if (row.skipped) continue;
        if (row.output != rows[0].output || !(row.stats == rows[0].stats)) {
          std::fprintf(stderr,
                       "ucc bench: %s disagrees with walk (output %s, "
                       "stats %s)\n",
                       row.name,
                       row.output == rows[0].output ? "match" : "differ",
                       row.stats == rows[0].stats ? "match" : "differ");
          return 1;
        }
      }
      return 0;
    }
    if (opts.command == "profile") {
      uc::ProfileOptions popts;
      popts.machine = opts.machine;
      popts.exec = opts.exec;
      popts.capture_trace = !opts.trace_json.empty();
      popts.join_static = opts.join_static;
      auto prof = program.profile(popts);
      std::fputs(prof.run.output().c_str(), stdout);
      uc::prof::TableOptions topts;
      topts.max_rows = static_cast<std::size_t>(opts.top);
      topts.show_static = opts.join_static;
      if (prof.aborted) {
        // A timeout or escalated fault mid-profile still flushes the
        // per-site table — the hot sites up to the abort are exactly what
        // a hang or fault storm needs diagnosed (docs/ROBUSTNESS.md).
        std::fprintf(stderr, "runtime error: %s\n", prof.error.c_str());
        std::fputs(prof.table(topts).c_str(), stderr);
        std::fprintf(stderr, "partial statistics (run aborted):\n%s\n",
                     prof.stats.to_string(opts.machine.cost).c_str());
        return 1;
      }
      std::fputs(prof.table(topts).c_str(), stdout);
      if (!opts.sites_json.empty() &&
          !write_file(opts.sites_json, prof.json())) {
        std::fprintf(stderr, "ucc: cannot write '%s'\n",
                     opts.sites_json.c_str());
        return 2;
      }
      if (!opts.trace_json.empty() &&
          !write_file(opts.trace_json, prof.trace())) {
        std::fprintf(stderr, "ucc: cannot write '%s'\n",
                     opts.trace_json.c_str());
        return 2;
      }
      return 0;
    }
    if (opts.command != "run") return usage();

    if (opts.profile || !opts.trace_json.empty()) {
      // Profiled run: same output and modeled cycles, plus attribution.
      uc::ProfileOptions popts;
      popts.machine = opts.machine;
      popts.exec = opts.exec;
      popts.capture_trace = !opts.trace_json.empty();
      popts.join_static = opts.join_static;
      auto prof = program.profile(popts);
      std::fputs(prof.run.output().c_str(), stdout);
      if (prof.aborted) {
        // Same contract as the plain run's partial statistics: an aborted
        // profiled run still surfaces the table it attributed so far.
        std::fprintf(stderr, "runtime error: %s\n", prof.error.c_str());
        std::fputs(prof.table().c_str(), stderr);
        if (opts.stats) {
          std::fprintf(stderr, "partial statistics (run aborted):\n%s\n",
                       prof.stats.to_string(opts.machine.cost).c_str());
        }
        return 1;
      }
      if (opts.profile && opts.profile_json.empty()) {
        std::fputs(prof.table().c_str(), stderr);
      } else if (!opts.profile_json.empty() &&
                 !write_file(opts.profile_json, prof.json())) {
        std::fprintf(stderr, "ucc: cannot write '%s'\n",
                     opts.profile_json.c_str());
        return 2;
      }
      if (!opts.trace_json.empty() &&
          !write_file(opts.trace_json, prof.trace())) {
        std::fprintf(stderr, "ucc: cannot write '%s'\n",
                     opts.trace_json.c_str());
        return 2;
      }
      if (opts.stats) {
        std::fprintf(stderr, "%s\n",
                     prof.stats.to_string(opts.machine.cost).c_str());
      }
      return 0;
    }

    // Plain run.  With a durable checkpoint directory, an escalated
    // transient fault (the in-memory replay budget is exhausted) retries
    // from the newest intact on-disk snapshot in a fresh machine before
    // giving up (docs/ROBUSTNESS.md).
    uc::vm::ExecOptions exec = opts.exec;
    for (int attempt = 0;; ++attempt) {
      uc::cm::Machine machine(opts.machine);
      auto abort_run = [&](const uc::support::UcRuntimeError& e) {
        // A watchdog timeout, memory-cap hit or unrecovered fault still
        // reports what the machine did up to the abort (partial stats make
        // hangs and OOMs diagnosable, docs/ROBUSTNESS.md).
        std::fprintf(stderr, "runtime error: %s\n", e.what());
        if (opts.trace) {
          for (const auto& line : machine.paris_trace()) {
            std::fprintf(stderr, "%s\n", line.c_str());
          }
        }
        if (opts.stats) {
          std::fprintf(stderr, "partial statistics (run aborted):\n%s\n",
                       machine.stats().to_string(opts.machine.cost).c_str());
        }
        return 1;
      };
      try {
        auto result = program.run_on(machine, exec);
        std::fputs(result.output().c_str(), stdout);
        if (opts.trace) {
          for (const auto& line : machine.paris_trace()) {
            std::fprintf(stderr, "%s\n", line.c_str());
          }
        }
        if (opts.stats) {
          std::fprintf(stderr, "%s\n",
                       result.stats()
                           .to_string(opts.machine.cost)
                           .c_str());
        }
        return 0;
      } catch (const uc::support::EscalatedFault& e) {
        if (exec.checkpoint_dir.empty() || attempt >= 3) {
          return abort_run(e);
        }
        std::fprintf(stderr, "runtime error: %s\n", e.what());
        std::fprintf(stderr,
                     "ucc: in-memory replay budget exhausted; restoring "
                     "from durable checkpoints in '%s' (attempt %d of 3)\n",
                     exec.checkpoint_dir.c_str(), attempt + 1);
        exec.resume = true;
        exec.fresh_replay_budget = true;
      } catch (const uc::support::UcRuntimeError& e) {
        return abort_run(e);
      }
    }
  } catch (const uc::support::UcCompileError& e) {
    std::fputs(e.what(), stderr);
    return 1;
  } catch (const uc::support::UcRuntimeError& e) {
    std::fprintf(stderr, "runtime error: %s\n", e.what());
    return 1;
  } catch (const uc::support::ApiError& e) {
    // Library misuse surfaced through the public API: report it instead of
    // letting std::terminate take the process down with an abort.
    std::fprintf(stderr, "ucc: internal error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ucc: %s\n", e.what());
    return 1;
  }
}
