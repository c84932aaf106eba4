// uc::optimize_map — the emitter + replay-validator over the static
// mapping optimiser (src/analysis/optmap.*, docs/MAPPING.md).
//
// The static layer ranks dependence-legal mapping assignments; this layer
// makes them real: it rewrites the program (dropping any existing `map`
// sections on the chosen arrays and appending the chosen one), re-runs
// semantic analysis, and replays the original and the emitted source on
// the simulated machine.  An assignment is accepted only when the replay
// is bit-identical in output and strictly cheaper in modeled cycles —
// otherwise the next ranked assignment is tried, and the original program
// wins by default.
#include <algorithm>
#include <set>

#include "analysis/optmap.hpp"
#include "codegen/pretty.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "uc/uc.hpp"

namespace uc {

namespace {

using analysis::Assignment;
using analysis::MapChoice;
using analysis::MapChoiceKind;
using support::json_escape;

lang::ExprPtr make_ident(const std::string& name) {
  auto e = std::make_unique<lang::IdentExpr>();
  e->name = name;
  return e;
}

lang::ExprPtr make_int(std::int64_t value) {
  auto e = std::make_unique<lang::IntLitExpr>();
  e->value = value;
  return e;
}

lang::ExprPtr make_binary(lang::BinaryOp op, lang::ExprPtr lhs,
                          lang::ExprPtr rhs) {
  auto e = std::make_unique<lang::BinaryExpr>();
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

std::string elem_name_of(const MapChoice& c) {
  if (c.set != nullptr && c.set->index_set != nullptr &&
      c.set->index_set->elem != nullptr) {
    return c.set->index_set->elem->name;
  }
  return "i";
}

// Target subscript of `permute (S) T[g(i)] :- T[i]` realising placement
// pos(v) = coeff*v + offset: g(i) = coeff*i - coeff*offset.
lang::ExprPtr permute_target_subscript(const MapChoice& c,
                                       const std::string& elem) {
  if (c.coeff == 1) {
    if (c.offset == 0) return make_ident(elem);
    if (c.offset > 0) {
      return make_binary(lang::BinaryOp::kSub, make_ident(elem),
                         make_int(c.offset));
    }
    return make_binary(lang::BinaryOp::kAdd, make_ident(elem),
                       make_int(-c.offset));
  }
  // coeff == -1: g(i) = offset - i.
  return make_binary(lang::BinaryOp::kSub, make_int(c.offset),
                     make_ident(elem));
}

// Builds the chosen `map` section as an AST statement (names only; sema
// re-resolves them in the rewritten unit).
std::unique_ptr<lang::MapSectionStmt> build_map_section(
    const std::vector<MapChoice>& choices) {
  auto section = std::make_unique<lang::MapSectionStmt>();
  std::set<std::string> header;
  for (const auto& c : choices) {
    if (c.kind == MapChoiceKind::kIdentity || c.array == nullptr ||
        c.set == nullptr) {
      continue;
    }
    const std::string elem = elem_name_of(c);
    lang::Mapping m;
    m.index_sets = {c.set->name};
    m.target_array = c.array->name;
    switch (c.kind) {
      case MapChoiceKind::kCopy:
        m.kind = lang::MapKind::kCopy;
        break;
      case MapChoiceKind::kPermute:
        m.kind = lang::MapKind::kPermute;
        m.target_subscripts.push_back(permute_target_subscript(c, elem));
        m.source_array = c.array->name;
        m.source_subscripts.push_back(make_ident(elem));
        break;
      case MapChoiceKind::kFold:
        m.kind = lang::MapKind::kFold;
        m.target_subscripts.push_back(make_binary(lang::BinaryOp::kSub,
                                                  make_int(c.extent - 1),
                                                  make_ident(elem)));
        m.source_array = c.array->name;
        m.source_subscripts.push_back(make_ident(elem));
        break;
      case MapChoiceKind::kIdentity:
        continue;
    }
    header.insert(c.set->name);
    section->mappings.push_back(std::move(m));
  }
  if (section->mappings.empty()) return nullptr;
  section->index_sets.assign(header.begin(), header.end());
  return section;
}

// Rewrites a freshly compiled unit to carry the assignment: existing
// top-level map sections lose every mapping that targets a chosen array
// (the assignment replaces them), and the chosen section is appended as
// the last top-level item so startup applies it after all declarations.
bool apply_assignment(lang::CompilationUnit& unit,
                      const std::vector<MapChoice>& choices) {
  std::set<std::string> chosen;
  for (const auto& c : choices) {
    if (c.array != nullptr) chosen.insert(c.array->name);
  }

  auto& items = unit.program->items;
  for (auto it = items.begin(); it != items.end();) {
    auto* section =
        it->decl != nullptr && it->decl->kind == lang::StmtKind::kMapSection
            ? static_cast<lang::MapSectionStmt*>(it->decl.get())
            : nullptr;
    if (section == nullptr) {
      ++it;
      continue;
    }
    auto& maps = section->mappings;
    maps.erase(std::remove_if(maps.begin(), maps.end(),
                              [&](const lang::Mapping& m) {
                                return chosen.count(m.target_array) != 0;
                              }),
               maps.end());
    it = maps.empty() ? items.erase(it) : it + 1;
  }

  auto section = build_map_section(choices);
  if (section != nullptr) {
    lang::TopLevel item;
    item.decl = std::move(section);
    items.push_back(std::move(item));
  }

  lang::reanalyze(unit);
  return unit.ok();
}

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

std::string describe_assignment(const Assignment& a) {
  std::string out;
  for (const auto& c : a.choices) {
    if (!out.empty()) out += "; ";
    out += c.text;
  }
  return out.empty() ? "keep current mappings" : out;
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

  analysis::ProgramModel model = analysis::build_model(*unit);
  analysis::OptimizeOptions opt;
  opt.cost = options.machine.cost;
  opt.beam_width = options.beam_width;
  analysis::OptimizePlan plan =
      analysis::plan_mappings(*unit, model, opt);

  result.predicted_baseline = plan.baseline_cycles;
  result.predicted_optimized = plan.baseline_cycles;
  result.candidates_considered = plan.candidates_considered;
  result.candidates_blocked = plan.candidates_blocked;

  std::string text = support::format(
      "optimize-map: %zu array(s), %zu candidate mapping(s), %zu blocked "
      "by dependences\n"
      "predicted communication cycles under current mappings: %llu\n",
      plan.arrays.size(), plan.candidates_considered,
      plan.candidates_blocked,
      static_cast<unsigned long long>(plan.baseline_cycles));

  text += "ranked assignments (beam search):\n";
  const std::size_t show = std::min<std::size_t>(plan.ranked.size(), 3);
  for (std::size_t i = 0; i < show; ++i) {
    const Assignment& a = plan.ranked[i];
    text += support::format(
        "  %zu. %s  [predicted %llu]\n", i + 1,
        describe_assignment(a).c_str(),
        static_cast<unsigned long long>(a.predicted_cycles));
  }

  // Candidate assignments worth emitting, best first.
  std::vector<const Assignment*> tries;
  for (const auto& a : plan.ranked) {
    if (!a.choices.empty() && a.predicted_cycles < plan.baseline_cycles) {
      tries.push_back(&a);
    }
  }
  if (options.validate && tries.size() > options.max_validation_tries) {
    tries.resize(options.max_validation_tries);
  }

  Replay base;
  if (options.validate && !tries.empty()) {
    base = replay(name, source, options);
    if (!base.ok) {
      text += "replay of the baseline program failed; keeping current "
              "mappings\n";
      tries.clear();
    } else {
      result.baseline_cycles = base.cycles;
    }
  }

  for (const Assignment* a : tries) {
    auto rewritten = lang::compile(name, source);
    if (!rewritten->ok() || !apply_assignment(*rewritten, a->choices)) {
      text += support::format(
          "  rejected '%s': rewritten program fails semantic analysis\n",
          describe_assignment(*a).c_str());
      continue;
    }

    const std::string rewritten_source =
        codegen::print_program(*rewritten->program);
    if (options.validate) {
      Replay opt_run = replay(name, rewritten_source, options);
      if (!opt_run.ok) {
        text += support::format("  rejected '%s': replay failed\n",
                                describe_assignment(*a).c_str());
        continue;
      }
      if (opt_run.output != base.output) {
        text += support::format(
            "  rejected '%s': replay output differs from the baseline\n",
            describe_assignment(*a).c_str());
        continue;
      }
      if (opt_run.cycles >= base.cycles) {
        text += support::format(
            "  rejected '%s': replay took %llu cycles (baseline %llu); no "
            "improvement\n",
            describe_assignment(*a).c_str(),
            static_cast<unsigned long long>(opt_run.cycles),
            static_cast<unsigned long long>(base.cycles));
        continue;
      }
      result.optimized_cycles = opt_run.cycles;
      result.validated = true;
    }

    result.improved = true;
    result.predicted_optimized = a->predicted_cycles;
    for (const auto& c : a->choices) {
      OptimizeMapChoice out;
      out.array = c.array != nullptr ? c.array->name : "";
      out.kind = analysis::map_choice_kind_name(c.kind);
      out.text = c.text;
      out.proof = c.proof;
      result.choices.push_back(std::move(out));
    }

    // The emitted section is the last top-level item of the rewrite.
    for (const auto& item : rewritten->program->items) {
      if (item.decl != nullptr &&
          item.decl->kind == lang::StmtKind::kMapSection) {
        result.map_section = codegen::print_stmt(*item.decl);
      }
    }
    result.optimized_source = rewritten_source;

    text += support::format("chosen: %s\n",
                            describe_assignment(*a).c_str());
    for (const auto& c : a->choices) {
      text += support::format("  %s: %s\n    proof: %s\n",
                              c.array->name.c_str(), c.text.c_str(),
                              c.proof.c_str());
    }
    text += support::format(
        "predicted communication cycles: %llu -> %llu (%.1f%% fewer)\n",
        static_cast<unsigned long long>(plan.baseline_cycles),
        static_cast<unsigned long long>(a->predicted_cycles),
        percent_fewer(plan.baseline_cycles, a->predicted_cycles));
    if (result.validated) {
      text += support::format(
          "replay: %llu -> %llu modeled cycles (%.1f%% fewer), output "
          "bit-identical\n",
          static_cast<unsigned long long>(result.baseline_cycles),
          static_cast<unsigned long long>(result.optimized_cycles),
          percent_fewer(result.baseline_cycles, result.optimized_cycles));
    }
    break;
  }

  if (!result.improved) {
    text += "chosen: keep current mappings (no candidate beat the "
            "baseline)\n";
  }
  result.text = std::move(text);
  return result;
}

std::string OptimizeMapResult::json() const {
  std::string out = "{\n";
  out += support::format("  \"improved\": %s,\n",
                         improved ? "true" : "false");
  out += support::format("  \"validated\": %s,\n",
                         validated ? "true" : "false");
  out += support::format(
      "  \"predicted\": {\"baseline\": %llu, \"optimized\": %llu},\n",
      static_cast<unsigned long long>(predicted_baseline),
      static_cast<unsigned long long>(predicted_optimized));
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
