#include "uc/uc.hpp"

#include "analysis/pass.hpp"
#include "codegen/cstar_emit.hpp"
#include "codegen/pretty.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "xform/const_fold.hpp"
#include "xform/map_rewrite.hpp"
#include "xform/solve_lower.hpp"

namespace uc {

Program::Program(std::unique_ptr<lang::CompilationUnit> unit)
    : unit_(std::move(unit)) {}

Program::Program(Program&&) noexcept = default;
Program& Program::operator=(Program&&) noexcept = default;
Program::~Program() = default;

Program Program::compile(std::string name, std::string source,
                         CompileOptions options) {
  auto unit = lang::compile(std::move(name), std::move(source));
  if (!unit->ok()) {
    throw support::UcCompileError(unit->diags.render_all());
  }
  // The transforms change what a snapshot's state means, so they are part
  // of the program's identity (docs/ROBUSTNESS.md).
  const std::string_view text = unit->file->text();
  unit->identity = support::fnv1a_u64(
      (options.lower_solve ? 1u : 0u) | (options.rewrite_permutes ? 2u : 0u) |
          (options.fold_constants ? 4u : 0u),
      support::fnv1a(text.data(), text.size()));
  bool changed = false;
  if (options.fold_constants) {
    changed |= xform::fold_constants(*unit->program) > 0;
  }
  if (options.rewrite_permutes) {
    changed |=
        xform::rewrite_affine_permutes(*unit->program).rewritten_mappings > 0;
  }
  if (options.lower_solve) {
    changed |= xform::lower_solves(*unit->program).lowered > 0;
  }
  if (changed) {
    lang::reanalyze(*unit);
    if (!unit->ok()) {
      throw support::UcCompileError(
          "internal error: transformed program fails semantic analysis:\n" +
          unit->diags.render_all());
    }
  }
  return Program(std::move(unit));
}

std::string Program::check(std::string name, std::string source) {
  auto unit = lang::compile(std::move(name), std::move(source));
  return unit->ok() ? std::string() : unit->diags.render_all();
}

AnalyzeResult analyze(std::string name, std::string source,
                      const AnalyzeOptions& options) {
  AnalyzeResult result;
  auto unit = lang::compile(std::move(name), std::move(source));
  if (!unit->ok()) {
    result.text = unit->diags.render_all();
    result.errors = unit->diags.error_count();
    return result;
  }
  result.compiled = true;

  analysis::Report report = analysis::run_default_analysis(*unit);

  analysis::RenderOptions render;
  render.include_notes = options.include_notes;
  render.include_summary = options.include_summary;
  result.text = report.render(unit->file.get(), render);
  result.json = report.json(unit->file.get());
  result.errors = report.error_count();
  result.warnings = report.warning_count();
  result.notes = report.note_count();
  return result;
}

vm::RunResult Program::run(cm::MachineOptions machine_options,
                           vm::ExecOptions exec_options) const {
  cm::Machine machine(machine_options);
  return run_on(machine, exec_options);
}

vm::RunResult Program::run_on(cm::Machine& machine,
                              vm::ExecOptions exec_options) const {
  vm::Interp interp(*unit_, machine, exec_options);
  return interp.run();
}

ProfileResult Program::profile(const ProfileOptions& options) const {
  prof::Profiler profiler(options.capture_trace);

  cm::Machine machine(options.machine);
  vm::ExecOptions exec = options.exec;
  exec.profiler = &profiler;

  vm::RunResult run;
  std::string error;
  try {
    run = run_on(machine, exec);
  } catch (const support::UcRuntimeError& e) {
    // A timeout, memory-cap hit or escalated fault mid-profile: keep the
    // attribution gathered so far so the caller can still print the table
    // alongside the machine's partial statistics (docs/ROBUSTNESS.md).
    error = e.what();
  }
  ProfileResult result = attribute(profiler, machine, options.join_static);
  result.run = std::move(run);
  result.aborted = !error.empty();
  result.error = std::move(error);
  return result;
}

ProfileResult Program::attribute(const prof::Profiler& profiler,
                                 cm::Machine& machine,
                                 bool join_static) const {
  ProfileResult result;
  result.stats = machine.stats();
  result.model = machine.cost_model();
  result.pool.threads = machine.pool().thread_count();
  result.pool.jobs = machine.pool().jobs_executed();
  result.pool.chunks = machine.pool().chunks_per_worker();
  result.sites = profiler.sites();
  result.events = profiler.events();
  if (!join_static) return result;

  // Static-vs-dynamic join: classify every parallel access with the
  // `ucc analyze` passes and annotate each dynamic site whose source range
  // covers the access.  The analysis runs on the same (possibly
  // transformed) unit the VM executed, so offsets line up exactly.
  analysis::Report report =
      analysis::run_default_analysis(*unit_, machine.cost_model());
  for (auto& site : result.sites) {
    if (site.end_offset <= site.begin_offset) continue;
    bool seen[4] = {false, false, false, false};
    for (const auto& fn : report.functions) {
      for (const auto& access : fn.accesses) {
        const auto at = access.range.begin.offset;
        if (at < site.begin_offset || at >= site.end_offset) continue;
        seen[static_cast<std::size_t>(access.cls)] = true;
      }
    }
    std::string classes;
    for (std::size_t c = 0; c < 4; ++c) {
      if (!seen[c]) continue;
      if (!classes.empty()) classes += '+';
      classes += analysis::comm_class_name(static_cast<analysis::CommClass>(c));
    }
    site.static_classes = std::move(classes);
  }
  return result;
}

std::string ProfileResult::table(const prof::TableOptions& opts) const {
  return prof::render_table(sites, model, stats, pool, opts);
}

std::string ProfileResult::json() const {
  return prof::sites_json(sites, stats, pool);
}

std::string ProfileResult::trace() const {
  return prof::trace_json(sites, events);
}

std::string Program::to_uc_source() const {
  return codegen::print_program(*unit_->program);
}

std::string Program::to_cstar_source() const {
  return codegen::emit_cstar(*unit_);
}

}  // namespace uc
