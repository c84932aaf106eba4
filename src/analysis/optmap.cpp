// Mapping optimiser candidates: per array, the identity (when a map
// section already targets it), the permutes that align some access with
// the lanes, a fold, and a copy, each proved legal or blocked by the
// dependence pass; and the source rewrite that applies chosen candidates.
// docs/MAPPING.md documents the search space and the legality proofs
// (src/analysis/depend.cpp).
#include "analysis/optmap.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "support/str.hpp"

namespace uc::analysis {

namespace {

using lang::Symbol;

// Index set whose values are exactly {0 .. n-1}.
bool covers_iota(const Symbol* set, std::int64_t n) {
  if (set == nullptr || set->index_set == nullptr) return false;
  const auto& values = set->index_set->values;
  if (static_cast<std::int64_t>(values.size()) != n) return false;
  std::vector<std::int64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::int64_t k = 0; k < n; ++k) {
    if (sorted[static_cast<std::size_t>(k)] != k) return false;
  }
  return true;
}

std::vector<const Symbol*> index_sets_of(const lang::CompilationUnit& unit) {
  std::vector<const Symbol*> sets;
  for (const auto& sym : unit.sema.symbols) {
    if (sym->kind == lang::SymbolKind::kIndexSet &&
        sym->index_set != nullptr && sym->index_set->elem != nullptr) {
      sets.push_back(sym.get());
    }
  }
  std::sort(sets.begin(), sets.end(),
            [](const Symbol* a, const Symbol* b) { return a->name < b->name; });
  return sets;
}

std::string render_choice_text(const MapChoice& c) {
  if (c.kind == MapChoiceKind::kIdentity || c.array == nullptr) {
    return "identity";
  }
  const std::string& t = c.array->name;
  const std::string s = c.set != nullptr ? c.set->name : "?";
  const std::string e =
      c.set != nullptr && c.set->index_set != nullptr &&
              c.set->index_set->elem != nullptr
          ? c.set->index_set->elem->name
          : "i";
  switch (c.kind) {
    case MapChoiceKind::kCopy:
      return "copy (" + s + ") " + t;
    case MapChoiceKind::kFold:
      return support::format("fold (%s) %s[%lld-%s] :- %s[%s]", s.c_str(),
                             t.c_str(),
                             static_cast<long long>(c.extent - 1), e.c_str(),
                             t.c_str(), e.c_str());
    case MapChoiceKind::kPermute: {
      // Mapping text for placement pos(v)=a*v+b: T[a*e - a*b] :- T[e].
      std::string g;
      if (c.coeff == 1) {
        if (c.offset == 0) {
          g = e;
        } else if (c.offset < 0) {
          g = support::format("%s+%lld", e.c_str(),
                              static_cast<long long>(-c.offset));
        } else {
          g = support::format("%s-%lld", e.c_str(),
                              static_cast<long long>(c.offset));
        }
      } else {
        g = support::format("%lld-%s", static_cast<long long>(c.offset),
                            e.c_str());
      }
      return "permute (" + s + ") " + t + "[" + g + "] :- " + t + "[" + e +
             "]";
    }
    case MapChoiceKind::kIdentity:
      break;
  }
  return "identity";
}

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

}  // namespace

bool apply_choices(lang::CompilationUnit& unit,
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

const char* map_choice_kind_name(MapChoiceKind k) {
  switch (k) {
    case MapChoiceKind::kIdentity:
      return "identity";
    case MapChoiceKind::kPermute:
      return "permute";
    case MapChoiceKind::kFold:
      return "fold";
    case MapChoiceKind::kCopy:
      return "copy";
  }
  return "identity";
}

OptimizePlan plan_mappings(const lang::CompilationUnit& unit,
                           const ProgramModel& model) {
  OptimizePlan plan;
  const DependSummary dep = summarize_dependences(model);
  const auto sets = index_sets_of(unit);
  std::set<const Symbol*> mapped;
  std::set<const Symbol*> copied;
  for (const auto& ref : model.mappings) {
    mapped.insert(ref.target);
    if (ref.mapping->kind == lang::MapKind::kCopy) copied.insert(ref.target);
  }

  // Arrays with parallel accesses, in name order for determinism.
  std::vector<const ArrayDep*> arrays;
  for (const auto& [sym, d] : dep.arrays) {
    (void)sym;
    arrays.push_back(&d);
  }
  std::sort(arrays.begin(), arrays.end(),
            [](const ArrayDep* a, const ArrayDep* b) {
              return a->array->name < b->array->name;
            });

  for (const ArrayDep* d : arrays) {
    ArrayPlan ap;
    ap.array = d->array;
    const auto& dims = d->array->type.dims;

    auto add = [&](MapChoice choice, const Legality& legality) {
      Candidate cand;
      choice.text = render_choice_text(choice);
      choice.proof = legality.proof;
      cand.choice = std::move(choice);
      cand.legal = legality.legal;
      cand.blocker = legality.blocker;
      cand.blocked_at = legality.blocked_at;
      ++plan.candidates_considered;
      if (!cand.legal) ++plan.candidates_blocked;
      ap.candidates.push_back(std::move(cand));
    };

    // Identity: drop the existing mapping, keep the default placement.
    if (mapped.count(d->array) != 0) {
      MapChoice id;
      id.kind = MapChoiceKind::kIdentity;
      id.array = d->array;
      Legality always;
      always.legal = true;
      always.proof = "default placement: one element per processor";
      add(std::move(id), always);
    }

    if (dims.size() == 1) {
      const std::int64_t extent = dims[0];
      const Symbol* full_set = nullptr;
      for (const auto* s : sets) {
        if (covers_iota(s, extent)) {
          full_set = s;
          break;
        }
      }

      // Permutes that make some access's physical position the lane index:
      // an access with element form c*e + o wants placement a=c, b=-c*o.
      if (full_set != nullptr) {
        std::vector<std::pair<std::int64_t, std::int64_t>> wanted;
        for (const auto& w : d->windows) {
          if (!w.exact || (w.coeff != 1 && w.coeff != -1)) continue;
          const std::int64_t a = w.coeff;
          const std::int64_t b = -w.coeff * w.offset;
          if (a == 1 && b == 0) continue;  // the default placement
          wanted.emplace_back(a, b);
        }
        std::sort(wanted.begin(), wanted.end());
        wanted.erase(std::unique(wanted.begin(), wanted.end()),
                     wanted.end());
        for (const auto& [a, b] : wanted) {
          MapChoice c;
          c.kind = MapChoiceKind::kPermute;
          c.array = d->array;
          c.set = full_set;
          c.coeff = a;
          c.offset = b;
          c.extent = extent;
          add(std::move(c), prove_permute(*d, extent, a, b));
          const auto placed = model.placements.find(d->array);
          ap.candidates.back().current =
              placed != model.placements.end() && placed->second.affine &&
              placed->second.coeff == a && placed->second.offset == b;
        }
      }

      // Fold: pair v with extent-1-v when some access lives in the upper
      // half and a half-range index set exists to express the mapping.
      if (extent > 0 && extent % 2 == 0) {
        const Symbol* half_set = nullptr;
        for (const auto* s : sets) {
          if (covers_iota(s, extent / 2)) {
            half_set = s;
            break;
          }
        }
        bool upper = false;
        for (const auto& w : d->windows) {
          if (!w.exact) continue;
          const std::int64_t lo = std::min(w.coeff * w.elem_lo + w.offset,
                                           w.coeff * w.elem_hi + w.offset);
          if (lo >= extent / 2) upper = true;
        }
        if (half_set != nullptr && upper) {
          MapChoice c;
          c.kind = MapChoiceKind::kFold;
          c.array = d->array;
          c.set = half_set;
          c.extent = extent;
          add(std::move(c), prove_fold(*d, extent));
        }
      }
    }

    // Copy: replicate arrays that are read in parallel.  The smallest set
    // keeps the one-time replication sweep cheapest.
    if (d->parallel_reads > 0 && !sets.empty()) {
      const Symbol* smallest = sets.front();
      for (const auto* s : sets) {
        if (s->index_set->values.size() <
            smallest->index_set->values.size()) {
          smallest = s;
        }
      }
      MapChoice c;
      c.kind = MapChoiceKind::kCopy;
      c.array = d->array;
      c.set = smallest;
      add(std::move(c), prove_copy(*d));
      ap.candidates.back().current = copied.count(d->array) != 0;
    }

    plan.arrays.push_back(std::move(ap));
  }

  return plan;
}

}  // namespace uc::analysis
