// uc::optimize_map — chooses `map` sections by replaying them on the
// simulated machine (docs/MAPPING.md).
//
// The static layer (src/analysis/optmap.*) enumerates candidates and proves
// each legal or blocked with the dependence pass; it ranks nothing.  This
// layer replays the program once as written, then visits the arrays in
// name order and replays each legal candidate on top of the choices kept
// so far: it rewrites the program (dropping any existing `map` sections on
// the chosen arrays and appending the chosen one), re-runs semantic
// analysis, and runs the rewrite.  A candidate is kept only when its
// output is bit-identical to the baseline's and its modeled cycles are
// strictly fewer than the best run so far, so the VM's charge path is the
// only cost model a mapping is chosen by.  A candidate that is the array's
// current mapping is reported as such and not replayed.
#include "analysis/optmap.hpp"
#include "codegen/pretty.hpp"
#include "support/str.hpp"
#include "uc/uc.hpp"

namespace uc {

namespace {

using analysis::MapChoice;
using support::json_escape;

struct Replay {
  bool ok = false;
  std::string output;
  std::uint64_t cycles = 0;
};

// Compiles and runs a program exactly as `ucc run` would under the same
// options, so the reported replay cycles are ones a user can reproduce.
Replay replay(const std::string& name, const std::string& source,
              const OptimizeMapOptions& options) {
  Replay r;
  try {
    const vm::RunResult run =
        Program::compile(name, source, options.compile)
            .run(options.machine, options.exec);
    r.ok = true;
    r.output = run.output();
    r.cycles = run.stats().cycles;
  } catch (const std::exception&) {
    r.ok = false;
  }
  return r;
}

std::string describe(const std::vector<MapChoice>& choices) {
  std::string out;
  for (const auto& c : choices) {
    if (!out.empty()) out += "; ";
    out += c.text;
  }
  return out;
}

double percent_fewer(std::uint64_t baseline, std::uint64_t optimized) {
  if (baseline == 0) return 0.0;
  return 100.0 *
         (1.0 - static_cast<double>(optimized) /
                    static_cast<double>(baseline));
}

}  // namespace

OptimizeMapResult optimize_map(std::string name, std::string source,
                               const OptimizeMapOptions& options) {
  OptimizeMapResult result;

  auto unit = lang::compile(name, source);
  if (!unit->ok()) {
    result.text = unit->diags.render_all();
    return result;
  }
  result.compiled = true;

  const analysis::OptimizePlan plan =
      analysis::plan_mappings(*unit, analysis::build_model(*unit));
  result.candidates_considered = plan.candidates_considered;
  result.candidates_blocked = plan.candidates_blocked;

  std::string text = support::format(
      "optimize-map: %zu array(s), %zu candidate mapping(s), %zu blocked "
      "by dependences\n",
      plan.arrays.size(), plan.candidates_considered,
      plan.candidates_blocked);

  const Replay base = replay(name, source, options);
  if (!base.ok) {
    result.text = text + "replay of the baseline program failed; keeping "
                         "current mappings\n";
    return result;
  }
  result.baseline_cycles = base.cycles;
  result.optimized_cycles = base.cycles;
  text += support::format(
      "replay under current mappings: %llu modeled cycles\n",
      static_cast<unsigned long long>(base.cycles));

  // Greedy over the arrays: each keeps its cheapest candidate that beats
  // every run so far, and later arrays are replayed on top of it.
  std::vector<MapChoice> kept;
  for (const auto& ap : plan.arrays) {
    const MapChoice* pick = nullptr;
    for (const auto& cand : ap.candidates) {
      const char* array = ap.array->name.c_str();
      const char* what = cand.choice.text.c_str();
      if (!cand.legal) {
        std::string where;
        if (cand.blocked_at.begin.offset != 0) {
          where = support::format(
              " (line %u)", unit->file->line_col(cand.blocked_at.begin).line);
        }
        text += support::format("  %s: %s: blocked by a dependence%s: %s\n",
                                array, what, where.c_str(),
                                cand.blocker.c_str());
        continue;
      }
      if (cand.current) {
        text += support::format("  %s: %s: the current mapping\n", array,
                                what);
        continue;
      }
      std::vector<MapChoice> trial = kept;
      trial.push_back(cand.choice);
      auto rewritten = lang::compile(name, source);
      if (!analysis::apply_choices(*rewritten, trial)) {
        text += support::format(
            "  %s: %s: rewritten program fails semantic analysis\n", array,
            what);
        continue;
      }
      std::string rewritten_source =
          codegen::print_program(*rewritten->program);
      const Replay run = replay(name, rewritten_source, options);
      if (!run.ok) {
        text += support::format("  %s: %s: replay failed\n", array, what);
        continue;
      }
      if (run.output != base.output) {
        text += support::format(
            "  %s: %s: %llu modeled cycles, output differs from the "
            "baseline\n",
            array, what, static_cast<unsigned long long>(run.cycles));
        continue;
      }
      text += support::format("  %s: %s: %llu modeled cycles\n", array,
                              what,
                              static_cast<unsigned long long>(run.cycles));
      if (run.cycles < result.optimized_cycles) {
        pick = &cand.choice;
        result.optimized_cycles = run.cycles;
        result.optimized_source = std::move(rewritten_source);
        // The emitted section is the last top-level item of the rewrite.
        result.map_section.clear();
        for (const auto& item : rewritten->program->items) {
          if (item.decl != nullptr &&
              item.decl->kind == lang::StmtKind::kMapSection) {
            result.map_section = codegen::print_stmt(*item.decl);
          }
        }
      }
    }
    if (pick != nullptr) kept.push_back(*pick);
  }

  if (kept.empty()) {
    result.text = text + "chosen: keep current mappings (no candidate beat "
                         "the baseline)\n";
    return result;
  }
  result.improved = true;
  text += support::format("chosen: %s\n", describe(kept).c_str());
  for (const auto& c : kept) {
    OptimizeMapChoice out;
    out.array = c.array->name;
    out.kind = analysis::map_choice_kind_name(c.kind);
    out.text = c.text;
    out.proof = c.proof;
    result.choices.push_back(out);
    text += support::format("  %s: %s\n    proof: %s\n",
                            c.array->name.c_str(), c.text.c_str(),
                            c.proof.c_str());
  }
  text += support::format(
      "replay: %llu -> %llu modeled cycles (%.1f%% fewer), output "
      "bit-identical\n",
      static_cast<unsigned long long>(result.baseline_cycles),
      static_cast<unsigned long long>(result.optimized_cycles),
      percent_fewer(result.baseline_cycles, result.optimized_cycles));
  result.text = std::move(text);
  return result;
}

std::string OptimizeMapResult::json() const {
  std::string out = "{\n";
  out += support::format("  \"improved\": %s,\n",
                         improved ? "true" : "false");
  out += support::format(
      "  \"replay\": {\"baseline\": %llu, \"optimized\": %llu},\n",
      static_cast<unsigned long long>(baseline_cycles),
      static_cast<unsigned long long>(optimized_cycles));
  out += support::format(
      "  \"candidates\": {\"considered\": %zu, \"blocked\": %zu},\n",
      candidates_considered, candidates_blocked);
  out += "  \"choices\": [\n";
  for (std::size_t i = 0; i < choices.size(); ++i) {
    const auto& c = choices[i];
    out += support::format(
        "    {\"array\": \"%s\", \"kind\": \"%s\", \"text\": \"%s\", "
        "\"proof\": \"%s\"}%s\n",
        json_escape(c.array).c_str(), json_escape(c.kind).c_str(),
        json_escape(c.text).c_str(), json_escape(c.proof).c_str(),
        i + 1 < choices.size() ? "," : "");
  }
  out += "  ],\n";
  out += support::format("  \"map_section\": \"%s\"\n",
                         json_escape(map_section).c_str());
  out += "}\n";
  return out;
}

}  // namespace uc
