// ucc — the UC compiler/runner command-line tool: compile a .uc file and
// run, profile, check, analyze, remap or translate it on a simulated CM-2.
// kCommands and kOptions below are the whole interface: the parser, the
// per-command check and the help text (ucc with no arguments) read them.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/str.hpp"
#include "uc/uc.hpp"

namespace {

using uc::support::format;

// Everything the command line sets.
struct Options {
  std::string command;
  std::string file;
  bool stats = false;
  bool werror = false;
  bool profile = false;      // print the hot-site table
  bool join_static = true;   // the table's static-analysis column
  std::string json;          // this command's JSON report
  std::string trace_json;    // Chrome trace events of a profiled run
  std::string emit_path;     // optimize-map's rewritten program
  std::uint64_t top = 0;     // table rows, 0 = every hot site
  uc::cm::MachineOptions machine;
  uc::vm::ExecOptions exec;
  uc::CompileOptions compile;
  uc::AnalyzeOptions analyze;
};

enum : unsigned {
  kRun = 1u << 0,
  kProfile = 1u << 1,
  kCheck = 1u << 2,
  kAnalyze = 1u << 3,
  kOptimizeMap = 1u << 4,
  kEmitCstar = 1u << 5,
  kEmitUc = 1u << 6,
};

struct Command {
  const char* name;
  unsigned bit;
  const char* help;
};

constexpr Command kCommands[] = {
    {"run", kRun, "compile and execute on a simulated CM-2"},
    {"profile", kProfile, "run with the hot-site table on stdout"},
    {"check", kCheck, "report diagnostics (plus analysis warnings)"},
    {"analyze", kAnalyze, "par-block interference and communication classes"},
    {"optimize-map", kOptimizeMap,
     "dependence-proved mapping candidates, ranked by replay"},
    {"emit-cstar", kEmitCstar, "print the C* translation"},
    {"emit-uc", kEmitUc, "print the canonical UC rendering"},
};

// Which commands read which options.  run and profile execute the program
// and optimize-map replays it, so all three read the machine, execution
// and compile options; the emitters read only the compile options.
constexpr unsigned kRuns = kRun | kProfile;
constexpr unsigned kExecutes = kRuns | kOptimizeMap;
constexpr unsigned kCompiles = kExecutes | kEmitCstar | kEmitUc;

enum class Kind : std::uint8_t {
  kFlag,       // --name
  kCount,      // --name=<n>, an integer in [min, max]
  kSeconds,    // --name=<secs>, a finite number >= 0
  kText,       // --name=<value>, not empty
  kMaybeText,  // --name, or --name=<value>
};

// A parsed value: `n` for counts, `x` for seconds, `s` for text.
struct Value {
  std::uint64_t n = 0;
  double x = 0.0;
  std::string s;
};

struct Option {
  const char* name;  // spelled with a leading "--"
  Kind kind;
  const char* value;  // the value's placeholder in the help
  std::uint64_t min, max;
  unsigned commands;
  const char* help;
  void (*set)(Options&, const Value&);  // throws on a value it refuses
};

constexpr std::uint64_t kAny = UINT64_MAX;

// Named because the cross-option checks in parse_args cite them.
constexpr const char* kCheckpointEvery = "--checkpoint-every";
constexpr const char* kCheckpointDir = "--checkpoint-dir";
constexpr const char* kResume = "--resume";

constexpr Option kOptions[] = {
    {"--profile", Kind::kFlag, "", 0, 0, kRun,
     "attribute cycles to source sites; table on stderr",
     [](Options& o, const Value&) { o.profile = true; }},
    {"--stats", Kind::kFlag, "", 0, 0, kRuns,
     "print machine statistics (and native-tier counters) after the run",
     [](Options& o, const Value&) { o.stats = true; }},
    {"--trace", Kind::kFlag, "", 0, 0, kRuns,
     "print the Paris-style instruction trace",
     [](Options& o, const Value&) { o.machine.record_paris_trace = true; }},
    {"--top", Kind::kCount, "<n>", 1, kAny, kRuns,
     "profile table: only the n hottest sites",
     [](Options& o, const Value& v) { o.top = v.n; }},
    {"--no-static", Kind::kFlag, "", 0, 0, kRuns,
     "profile table: skip the static-analysis join",
     [](Options& o, const Value&) { o.join_static = false; }},
    {"--trace-json", Kind::kText, "<file>", 0, 0, kRuns,
     "profile and write Chrome trace-event JSON",
     [](Options& o, const Value& v) { o.trace_json = v.s; }},
    {"--json", Kind::kText, "<file>", 0, 0,
     kRuns | kAnalyze | kOptimizeMap,
     "write the command's JSON (run: per-site profile)",
     [](Options& o, const Value& v) { o.json = v.s; }},
    {"--no-notes", Kind::kFlag, "", 0, 0, kAnalyze, "drop UC-Axxx notes",
     [](Options& o, const Value&) { o.analyze.include_notes = false; }},
    {"--no-summary", Kind::kFlag, "", 0, 0, kAnalyze,
     "drop the communication summary",
     [](Options& o, const Value&) { o.analyze.include_summary = false; }},
    {"--werror", Kind::kFlag, "", 0, 0, kAnalyze,
     "nonzero exit on any warning",
     [](Options& o, const Value&) { o.werror = true; }},
    {"--emit", Kind::kText, "<file>", 0, 0, kOptimizeMap,
     "write the rewritten program",
     [](Options& o, const Value& v) { o.emit_path = v.s; }},
    {"--procs", Kind::kCount, "<n>", 1, kAny, kExecutes,
     "physical processors (default 16384)",
     [](Options& o, const Value& v) {
       o.machine.cost.physical_processors = v.n;
     }},
    {"--lower-solve", Kind::kFlag, "", 0, 0, kCompiles,
     "lower solve to *par at the source level",
     [](Options& o, const Value&) { o.compile.lower_solve = true; }},
    {"--rewrite-permutes", Kind::kFlag, "", 0, 0, kCompiles,
     "apply affine permutes as subscript rewrites",
     [](Options& o, const Value&) { o.compile.rewrite_permutes = true; }},
    {"--no-fold", Kind::kFlag, "", 0, 0, kCompiles, "no constant folding",
     [](Options& o, const Value&) { o.compile.fold_constants = false; }},
    {"--engine", Kind::kText, "<walk|bytecode|native>", 0, 0, kExecutes,
     "lane execution engine (default bytecode)",
     [](Options& o, const Value& v) {
       using uc::vm::ExecEngine;
       if (v.s == "walk") {
         o.exec.engine = ExecEngine::kWalk;
       } else if (v.s == "bytecode") {
         o.exec.engine = ExecEngine::kBytecode;
       } else if (v.s == "native") {
         o.exec.engine = ExecEngine::kNative;
       } else {
         throw std::invalid_argument("expected walk, bytecode or native");
       }
     }},
    {"--native-cache-dir", Kind::kText, "<dir>", 0, 0, kExecutes,
     "native: kernel cache (default $UC_NATIVE_CACHE_DIR)",
     [](Options& o, const Value& v) { o.exec.native_cache_dir = v.s; }},
    {"--native-cc", Kind::kText, "<cc>", 0, 0, kExecutes,
     "native: compiler (default $UC_NATIVE_CC or c++)",
     [](Options& o, const Value& v) { o.exec.native_cc = v.s; }},
    {"--seed", Kind::kCount, "<n>", 0, kAny, kExecutes,
     "machine RNG seed (default 1)",
     [](Options& o, const Value& v) { o.machine.seed = v.n; }},
    {"--threads", Kind::kCount, "<n>", 1, UINT_MAX, kExecutes,
     "host threads for the runtime (default 1)",
     [](Options& o, const Value& v) {
       o.machine.host_threads = static_cast<unsigned>(v.n);
     }},
    {"--max-field-mb", Kind::kCount, "<n>", 1, kAny >> 20, kExecutes,
     "cap total CM field memory at n MiB",
     [](Options& o, const Value& v) { o.machine.max_field_bytes = v.n << 20; }},
    {"--max-iterations", Kind::kCount, "<n>", 0, INT64_MAX, kExecutes,
     "loop iteration limit (0 = unlimited)",
     [](Options& o, const Value& v) {
       o.exec.max_iterations = static_cast<std::int64_t>(v.n);
     }},
    {"--timeout", Kind::kSeconds, "<secs>", 0, 0, kExecutes,
     "wall-clock watchdog (abort cleanly)",
     [](Options& o, const Value& v) { o.exec.timeout_seconds = v.x; }},
    {"--no-mappings", Kind::kFlag, "", 0, 0, kExecutes, "ignore map sections",
     [](Options& o, const Value&) { o.exec.apply_mappings = false; }},
    {"--no-procopt", Kind::kFlag, "", 0, 0, kExecutes,
     "disable the processor optimisation",
     [](Options& o, const Value&) {
       o.exec.processor_optimization = false;
     }},
    {"--faults", Kind::kText, "<spec>", 0, 0, kExecutes,
     "seeded transient faults, e.g. router:p=1e-4,seed=42",
     [](Options& o, const Value& v) {
       o.machine.faults = uc::cm::parse_fault_spec(v.s);
     }},
    {kCheckpointEvery, Kind::kCount, "<n>", 0, kAny, kExecutes,
     "recovery checkpoint every n statements (0 = off)",
     [](Options& o, const Value& v) { o.exec.checkpoint_every = v.n; }},
    {"--max-replays", Kind::kCount, "<n>", 1, kAny, kExecutes,
     "checkpoint replay budget (default 64)",
     [](Options& o, const Value& v) { o.exec.max_replays = v.n; }},
    {kCheckpointDir, Kind::kText, "<dir>", 0, 0, kExecutes,
     "persist checkpoints durably in <dir>",
     [](Options& o, const Value& v) { o.exec.checkpoint_dir = v.s; }},
    {"--checkpoint-keep", Kind::kCount, "<n>", 1, kAny, kExecutes,
     "on-disk generations to keep (default 3)",
     [](Options& o, const Value& v) { o.exec.checkpoint_keep = v.n; }},
    {kResume, Kind::kMaybeText, "<dir>", 0, 0, kExecutes,
     "finish from the newest intact snapshot",
     [](Options& o, const Value& v) {
       o.exec.resume = true;
       if (!v.s.empty()) o.exec.checkpoint_dir = v.s;
     }},
    {"--die-at", Kind::kCount, "<n>", 1, kAny, kExecutes,
     "testing: SIGKILL before the n-th statement",
     [](Options& o, const Value& v) { o.exec.die_at_statement = v.n; }},
};

std::string command_names(unsigned commands) {
  std::string names;
  for (const auto& c : kCommands) {
    if ((commands & c.bit) == 0) continue;
    if (!names.empty()) names += ", ";
    names += c.name;
  }
  return names;
}

void help() {
  std::string text = "usage: ucc <command> <file.uc> [options]\n\ncommands:\n";
  for (const auto& c : kCommands) {
    text += format("  %-14s%s\n", c.name, c.help);
  }
  // One group per set of commands that read the same options.
  std::vector<unsigned> groups;
  for (const auto& o : kOptions) {
    if (std::find(groups.begin(), groups.end(), o.commands) == groups.end()) {
      groups.push_back(o.commands);
    }
  }
  for (const unsigned g : groups) {
    text += "\noptions of " + command_names(g) + ":\n";
    for (const auto& o : kOptions) {
      if (o.commands != g) continue;
      std::string spelling = o.name;
      if (o.kind == Kind::kMaybeText) {
        spelling += format("[=%s]", o.value);
      } else if (o.kind != Kind::kFlag) {
        spelling += format("=%s", o.value);
      }
      if (spelling.size() > 23) spelling += "\n" + std::string(26, ' ');
      text += format("  %-24s%s\n", spelling.c_str(), o.help);
    }
  }
  std::fputs(text.c_str(), stderr);
}

// Parses `text` as one option's value; returns the complaint, or "".
std::string parse_value(const Option& o, const std::string& text, Value& v) {
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  switch (o.kind) {
    case Kind::kFlag:
      return "takes no value";
    case Kind::kCount:
      v.n = std::strtoull(s, &end, 10);
      if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
          errno == ERANGE || v.n < o.min || v.n > o.max) {
        return format("expected an integer from %llu to %llu",
                      static_cast<unsigned long long>(o.min),
                      static_cast<unsigned long long>(o.max));
      }
      return "";
    case Kind::kSeconds:
      v.x = std::strtod(s, &end);
      if (*s == '\0' || *end != '\0' || errno == ERANGE ||
          !std::isfinite(v.x) || v.x < 0.0) {
        return "expected a finite number >= 0";
      }
      return "";
    case Kind::kText:
    case Kind::kMaybeText:
      v.s = text;
      return text.empty() ? "expected a value" : "";
  }
  return "";
}

// Reads argv into `opts`; prints why and returns false on a bad command
// line (the help, when the command itself is missing or unknown).
bool parse_args(int argc, char** argv, Options& opts) {
  if (argc < 3) {
    help();
    return false;
  }
  opts.command = argv[1];
  opts.file = argv[2];
  const auto* command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return opts.command == c.name; });
  if (command == std::end(kCommands)) {
    std::fprintf(stderr, "ucc: unknown command '%s'\n", argv[1]);
    help();
    return false;
  }
  if (command->bit == kProfile) opts.profile = true;
  for (int k = 3; k < argc; ++k) {
    const std::string arg = argv[k];
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto* o =
        std::find_if(std::begin(kOptions), std::end(kOptions),
                     [&](const Option& row) { return name == row.name; });
    if (o == std::end(kOptions)) {
      std::fprintf(stderr, "ucc: unknown option '%s'\n", arg.c_str());
      return false;
    }
    if ((o->commands & command->bit) == 0) {
      std::fprintf(stderr, "ucc: option '%s' is not read by 'ucc %s' (only "
                   "by %s)\n", o->name, command->name,
                   command_names(o->commands).c_str());
      return false;
    }
    Value v;
    std::string complaint;
    if (eq != std::string::npos) {
      complaint = parse_value(*o, arg.substr(eq + 1), v);
    } else if (o->kind != Kind::kFlag && o->kind != Kind::kMaybeText) {
      complaint = "expected a value";
    }
    if (complaint.empty()) {
      try {
        o->set(opts, v);
      } catch (const std::exception& e) {
        complaint = e.what();
      }
    }
    if (!complaint.empty()) {
      std::fprintf(stderr, "ucc: invalid value in '%s' (%s)\n", arg.c_str(),
                   complaint.c_str());
      return false;
    }
  }
  // Durable-checkpoint option consistency is checked here, where the
  // message can name the options, rather than deep in the VM where only
  // the ExecOptions fields are visible (docs/ROBUSTNESS.md).
  if (opts.exec.resume && opts.exec.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "ucc: %s needs a checkpoint directory; pass %s=<dir> or "
                 "add %s=<dir>\n",
                 kResume, kResume, kCheckpointDir);
    return false;
  }
  if (!opts.exec.checkpoint_dir.empty() && opts.exec.checkpoint_every == 0) {
    std::fprintf(stderr,
                 "ucc: %s requires %s=<n> with n > 0 (durable snapshots are "
                 "written at in-memory capture points, docs/ROBUSTNESS.md)\n",
                 kCheckpointDir, kCheckpointEvery);
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

// Writes `content` to `path` unless the path is empty; false (after
// saying so) when the write fails.
bool write_report(const std::string& path, const std::string& content) {
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (out) return true;
  std::fprintf(stderr, "ucc: cannot write '%s'\n", path.c_str());
  return false;
}

// Executes the program: plain, profiled or traced.  With a durable
// checkpoint directory, an escalated transient fault (the in-memory replay
// budget is exhausted) retries from the newest intact on-disk snapshot in
// a fresh machine before giving up (docs/ROBUSTNESS.md).
int run(const uc::Program& program, const Options& opts) {
  const bool profiled =
      opts.profile || !opts.json.empty() || !opts.trace_json.empty();
  uc::vm::ExecOptions exec = opts.exec;
  for (int attempt = 1;; ++attempt) {
    uc::cm::Machine machine(opts.machine);
    uc::prof::Profiler profiler(!opts.trace_json.empty());
    exec.profiler = profiled ? &profiler : nullptr;
    std::string error;
    std::optional<uc::vm::RunResult> result;
    try {
      result = program.run_on(machine, exec);
      std::fputs(result->output().c_str(), stdout);
    } catch (const uc::support::EscalatedFault& e) {
      if (!exec.checkpoint_dir.empty() && attempt <= 3) {
        std::fprintf(stderr, "runtime error: %s\n", e.what());
        std::fprintf(stderr,
                     "ucc: in-memory replay budget exhausted; restoring "
                     "from durable checkpoints in '%s' (attempt %d of 3)\n",
                     exec.checkpoint_dir.c_str(), attempt);
        exec.resume = true;
        exec.fresh_replay_budget = true;
        continue;
      }
      error = e.what();
    } catch (const uc::support::UcRuntimeError& e) {
      error = e.what();
    }
    // A watchdog timeout, memory-cap hit or unrecovered fault still
    // reports what the machine did up to the abort: the trace, the hot
    // sites and the partial statistics make hangs, OOMs and fault storms
    // diagnosable (docs/ROBUSTNESS.md).
    const bool aborted = !error.empty();
    if (aborted) std::fprintf(stderr, "runtime error: %s\n", error.c_str());
    if (opts.machine.record_paris_trace) {
      for (const auto& line : machine.paris_trace()) {
        std::fprintf(stderr, "%s\n", line.c_str());
      }
    }
    if (profiled) {
      const auto prof = program.attribute(profiler, machine, opts.join_static);
      uc::prof::TableOptions table;
      table.max_rows = static_cast<std::size_t>(opts.top);
      table.show_static = opts.join_static;
      if (opts.profile || aborted) {
        const bool to_stdout = opts.command == "profile" && !aborted;
        std::fputs(prof.table(table).c_str(), to_stdout ? stdout : stderr);
      }
      if (!aborted && (!write_report(opts.json, prof.json()) ||
                       !write_report(opts.trace_json, prof.trace()))) {
        return 2;
      }
    }
    if (opts.stats) {
      std::fprintf(stderr, "%s%s\n",
                   aborted ? "partial statistics (run aborted):\n" : "",
                   machine.stats().to_string(opts.machine.cost).c_str());
      if (result && exec.engine == uc::vm::ExecEngine::kNative) {
        std::fprintf(
            stderr,
            "native: compiled=%llu cache_hits=%llu dispatches=%llu "
            "fallbacks=%llu\n",
            static_cast<unsigned long long>(result->native_kernels_compiled()),
            static_cast<unsigned long long>(result->native_cache_hits()),
            static_cast<unsigned long long>(result->native_dispatches()),
            static_cast<unsigned long long>(result->native_fallbacks()));
      }
    }
    return aborted ? 1 : 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;

  std::string source;
  if (!read_file(opts.file, source)) {
    std::fprintf(stderr, "ucc: cannot read '%s'\n", opts.file.c_str());
    return 2;
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
      uc::AnalyzeOptions aopts;
      aopts.include_notes = false;
      aopts.include_summary = false;
      auto analysis = uc::analyze(opts.file, source, aopts);
      if (analysis.warnings > 0) std::fputs(analysis.text.c_str(), stderr);
      std::printf("%s: ok\n", opts.file.c_str());
      return 0;
    }

    if (opts.command == "analyze") {
      auto analysis = uc::analyze(opts.file, std::move(source), opts.analyze);
      if (!analysis.compiled) {
        std::fputs(analysis.text.c_str(), stderr);
        return 1;
      }
      std::fputs(analysis.text.c_str(), stdout);
      std::printf("%zu errors, %zu warnings, %zu notes\n", analysis.errors,
                  analysis.warnings, analysis.notes);
      if (!write_report(opts.json, analysis.json)) return 2;
      if (analysis.errors > 0) return 1;
      if (opts.werror && analysis.warnings > 0) return 1;
      return 0;
    }

    if (opts.command == "optimize-map") {
      uc::OptimizeMapOptions mopts;
      mopts.compile = opts.compile;
      mopts.machine = opts.machine;
      mopts.exec = opts.exec;
      auto result = uc::optimize_map(opts.file, std::move(source), mopts);
      if (!result.compiled) {
        std::fputs(result.text.c_str(), stderr);
        return 1;
      }
      std::fputs(result.text.c_str(), stdout);
      if (!write_report(opts.json, result.json())) return 2;
      if (!opts.emit_path.empty() && result.optimized_source.empty()) {
        std::fprintf(stderr,
                     "ucc: no improving mapping found; nothing to emit\n");
        return 1;
      }
      return write_report(opts.emit_path, result.optimized_source) ? 0 : 2;
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
    return run(program, opts);
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
