// Public entry point of the UC-on-CM library.
//
//   #include "uc/uc.hpp"
//
//   auto program = uc::Program::compile("demo.uc", source);
//   auto result  = program.run();                 // fresh simulated CM-2
//   result.output();                              // print() output
//   result.global_scalar("s").as_int();           // inspect globals
//   result.stats().cycles;                        // simulated machine time
//
// Compilation runs the full front end (preprocess, lex, parse, sema) plus
// the optional optimisation passes of the paper's §4 (constant folding,
// affine permute rewriting) and the §3.6 solve lowering.  Execution runs
// the analysed program on the simulated Connection Machine (see
// cm::MachineOptions for machine size / seed / host threads and
// vm::ExecOptions for optimisation toggles).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cm/machine.hpp"
#include "prof/profile.hpp"
#include "prof/report.hpp"
#include "uclang/frontend.hpp"
#include "ucvm/interp.hpp"

namespace uc {

struct CompileOptions {
  // §4 "code optimisations": fold constant subexpressions.
  bool fold_constants = true;
  // §3.6: lower non-starred `solve` to the guarded *par form at the source
  // level (constructs the lowering cannot express fall back to the VM's
  // built-in solve).
  bool lower_solve = false;
  // §4 "communication optimisations": rewrite affine 1-D permute mappings
  // into subscript shifts.
  bool rewrite_permutes = false;
};

// Options for the static-analysis passes (`ucc analyze`, docs/ANALYSIS.md).
struct AnalyzeOptions {
  bool include_notes = true;    // UC-Axxx notes in the rendered text
  bool include_summary = true;  // per-function communication summary
};

// Result of running the analysis passes over one source file.
struct AnalyzeResult {
  bool compiled = false;  // front end succeeded; analysis ran
  std::string text;       // rendered findings (+ summary), or front-end diags
  std::string json;       // machine-readable findings (`--json=`), or ""
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;
};

// Compiles (front end only, no transforms) and runs the analysis passes:
// par-block interference detection and communication classification.
// When the front end fails, `compiled` is false and `text`/`errors` carry
// the front-end diagnostics instead.
AnalyzeResult analyze(std::string name, std::string source,
                      const AnalyzeOptions& options = {});

// Options for the mapping optimiser (`ucc optimize-map`,
// docs/MAPPING.md): dependence-proved candidate `map` sections, each
// ranked by replaying it on the simulated machine.
struct OptimizeMapOptions {
  CompileOptions compile;      // the replays compile as Program::compile
  cm::MachineOptions machine;  // replay machine
  vm::ExecOptions exec;        // replay engine options
};

// One accepted remapping decision, for reporting.
struct OptimizeMapChoice {
  std::string array;
  std::string kind;   // "permute" / "fold" / "copy" / "identity"
  std::string text;   // canonical mapping text, e.g. "copy (I) d"
  std::string proof;  // dependence-legality proof
};

struct OptimizeMapResult {
  bool compiled = false;  // front end succeeded; the search ran
  bool improved = false;  // a replay kept at least one candidate
  std::string text;       // human-readable report, or front-end diags
  std::string map_section;      // chosen `map` section UC text ("" if none)
  std::string optimized_source; // full rewritten program ("" if none)
  std::vector<OptimizeMapChoice> choices;
  std::uint64_t baseline_cycles = 0;   // replay of the program as written
  std::uint64_t optimized_cycles = 0;  // chosen rewrite (= baseline if none)
  std::size_t candidates_considered = 0;
  std::size_t candidates_blocked = 0;  // rejected by the dependence pass

  // Machine-readable report (`--json=`), mirroring the profile JSON
  // conventions.
  std::string json() const;
};

// Runs the mapping optimiser: dependence pass and candidate generation,
// then a greedy replay over the arrays in name order, keeping a candidate
// only when its output is bit-identical and its modeled cycles strictly
// fewer.  The input program is never modified; the rewritten source is
// returned in `optimized_source`.
OptimizeMapResult optimize_map(std::string name, std::string source,
                               const OptimizeMapOptions& options = {});

// Options for a profiled run (`ucc profile`, docs/PROFILING.md).
struct ProfileOptions {
  cm::MachineOptions machine;
  vm::ExecOptions exec;        // engine choice etc.; `profiler` is ignored
  bool capture_trace = false;  // record Chrome trace events per scope
  bool join_static = true;     // annotate sites with `ucc analyze` classes
};

// Result of a profiled run: the ordinary RunResult plus the per-site
// attribution.  The invariant checked by the test suite: the sum of
// Site::self.cycles over `sites` equals `stats.cycles`.
//
// A run that aborts mid-way (watchdog timeout, memory cap, escalated
// fault) still returns a result: `aborted` is set, `error` carries the
// runtime error text, `run` stays default-constructed, and `sites`/`stats`
// hold the attribution accumulated up to the abort so the hot-site table
// remains printable (docs/ROBUSTNESS.md).
struct ProfileResult {
  vm::RunResult run;
  bool aborted = false;    // the run threw before completing
  std::string error;       // runtime error text when aborted
  cm::CostStats stats;     // run.stats() on success, partial on abort
  std::vector<prof::Site> sites;
  std::vector<prof::TraceEvent> events;  // empty unless capture_trace
  prof::PoolUtilization pool;
  cm::CostModel model;

  // The sorted hot-site table (human-readable).
  std::string table(const prof::TableOptions& opts = {}) const;
  // Machine-readable per-site JSON.
  std::string json() const;
  // Chrome trace-event JSON (chrome://tracing); empty array w/o capture.
  std::string trace() const;
};

class Program {
 public:
  // Throws support::UcCompileError (message = rendered diagnostics) when
  // the source does not compile.
  static Program compile(std::string name, std::string source,
                         CompileOptions options = {});

  // Returns the rendered diagnostics for a source, empty when it is
  // error-free — for tooling that wants errors without exceptions.
  static std::string check(std::string name, std::string source);

  Program(Program&&) noexcept;
  Program& operator=(Program&&) noexcept;
  ~Program();

  // Runs main() on a fresh simulated machine.
  vm::RunResult run(cm::MachineOptions machine_options = {},
                    vm::ExecOptions exec_options = {}) const;
  // Runs on an existing machine (stats accumulate there).
  vm::RunResult run_on(cm::Machine& machine,
                       vm::ExecOptions exec_options = {}) const;

  // Runs main() on a fresh machine with per-site profiling enabled and
  // (optionally) joins the static `ucc analyze` communication classes onto
  // the dynamic sites.  Output and modeled cycles are identical to run().
  ProfileResult profile(const ProfileOptions& options = {}) const;
  // The attribution half of profile(), for callers that run the program
  // themselves with ExecOptions::profiler set: the per-site result of what
  // `profiler` observed on `machine`, however the run ended.  `run`,
  // `aborted` and `error` are left for the caller.
  ProfileResult attribute(const prof::Profiler& profiler,
                          cm::Machine& machine, bool join_static) const;

  // The canonical UC rendering of the (possibly transformed) program.
  std::string to_uc_source() const;
  // The C*-style emission (what the paper's compiler targeted, §5).
  std::string to_cstar_source() const;

  const lang::CompilationUnit& unit() const { return *unit_; }

 private:
  explicit Program(std::unique_ptr<lang::CompilationUnit> unit);
  std::unique_ptr<lang::CompilationUnit> unit_;
};

}  // namespace uc
