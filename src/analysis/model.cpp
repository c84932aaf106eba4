#include "analysis/model.hpp"

#include <algorithm>
#include <sstream>

namespace uc::analysis {

using namespace lang;

// ---------------------------------------------------------------------------
// Guard helpers
// ---------------------------------------------------------------------------

const Congruence* Guard::congruence_on(const Symbol* elem) const {
  for (const auto& c : congruences) {
    if (c.elem == elem) return &c;
  }
  return nullptr;
}

bool Guard::pins_elem(const Symbol* elem) const {
  for (const auto* p : pins) {
    if (p == elem) return true;
  }
  return false;
}

std::uint64_t ParSite::lane_count() const {
  std::uint64_t n = 1;
  for (const auto& le : lanes) n *= static_cast<std::uint64_t>(le.size);
  return n;
}

bool ParSite::is_lane_elem(const Symbol* elem) const {
  return lane_of(elem) != nullptr;
}

const LaneElem* ParSite::lane_of(const Symbol* elem) const {
  for (const auto& le : lanes) {
    if (le.elem == elem) return &le;
  }
  return nullptr;
}

bool elem_value_range(const Symbol* elem, std::int64_t& min_v,
                      std::int64_t& max_v, std::int64_t& size) {
  if (elem == nullptr || elem->elem_of_set == nullptr ||
      elem->elem_of_set->index_set == nullptr) {
    return false;
  }
  const auto& values = elem->elem_of_set->index_set->values;
  if (values.empty()) return false;
  auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  min_v = *lo;
  max_v = *hi;
  size = static_cast<std::int64_t>(values.size());
  return true;
}

// ---------------------------------------------------------------------------
// Model builder
// ---------------------------------------------------------------------------

namespace {

std::int64_t norm_mod(std::int64_t r, std::int64_t m) {
  return ((r % m) + m) % m;
}

// Harvests index-pure constraints from an `st` predicate.
struct GuardParser {
  const ParSite& site;
  Guard g;

  void parse(const Expr& e) {
    if (e.kind == ExprKind::kBinary) {
      const auto& b = static_cast<const BinaryExpr&>(e);
      if (b.op == BinaryOp::kLogAnd) {
        parse(*b.lhs);
        parse(*b.rhs);
        return;
      }
      if (b.op == BinaryOp::kEq || b.op == BinaryOp::kNe) {
        if (try_congruence(b)) return;
        if (b.op == BinaryOp::kEq && try_equality(b)) return;
      }
    }
    g.data_dependent = true;
  }

  // (elem % m) == r   /   (elem % 2) != r
  bool try_congruence(const BinaryExpr& b) {
    for (int flip = 0; flip < 2; ++flip) {
      const Expr& mod_side = flip ? *b.rhs : *b.lhs;
      const Expr& val_side = flip ? *b.lhs : *b.rhs;
      if (mod_side.kind != ExprKind::kBinary) continue;
      const auto& m = static_cast<const BinaryExpr&>(mod_side);
      if (m.op != BinaryOp::kMod) continue;
      auto base = xform::linearize(*m.lhs);
      auto mod = xform::linearize(*m.rhs);
      auto val = xform::linearize(val_side);
      if (!mod.is_constant() || mod.constant <= 0 || !val.is_constant()) {
        continue;
      }
      if (!(base.exact && base.terms.size() == 1 &&
            base.terms[0].coeff == 1 &&
            site.is_lane_elem(base.terms[0].sym))) {
        continue;
      }
      std::int64_t rem = norm_mod(val.constant - base.constant, mod.constant);
      if (b.op == BinaryOp::kEq) {
        g.congruences.push_back(
            Congruence{base.terms[0].sym, mod.constant, rem});
        return true;
      }
      if (mod.constant == 2) {  // i % 2 != r  <=>  i % 2 == 1 - r
        g.congruences.push_back(
            Congruence{base.terms[0].sym, 2, norm_mod(1 - rem, 2)});
        return true;
      }
    }
    return false;
  }

  // elem == <uniform>   or   elem == elem' + c
  bool try_equality(const BinaryExpr& b) {
    auto diff =
        xform::linear_sub(xform::linearize(*b.lhs), xform::linearize(*b.rhs));
    if (!diff.exact) return false;
    std::vector<xform::LinearTerm> lane_terms, other_terms;
    for (const auto& t : diff.terms) {
      (site.is_lane_elem(t.sym) ? lane_terms : other_terms).push_back(t);
    }
    if (lane_terms.empty()) return true;  // uniform condition: no lane info
    if (lane_terms.size() == 1 &&
        (lane_terms[0].coeff == 1 || lane_terms[0].coeff == -1)) {
      g.pins.push_back(lane_terms[0].sym);
      return true;
    }
    if (lane_terms.size() == 2 && other_terms.empty() &&
        lane_terms[0].coeff + lane_terms[1].coeff == 0 &&
        (lane_terms[0].coeff == 1 || lane_terms[0].coeff == -1)) {
      // a - b + c == 0  (orient so the +1 term is `a`): a == b - c.
      const auto& pos = lane_terms[0].coeff == 1 ? lane_terms[0]
                                                 : lane_terms[1];
      const auto& neg = lane_terms[0].coeff == 1 ? lane_terms[1]
                                                 : lane_terms[0];
      g.eqs.push_back(ElemEq{pos.sym, neg.sym, -diff.constant});
      return true;
    }
    return false;
  }
};

Guard parse_guard(const Expr* pred, const ParSite& site) {
  GuardParser p{site, {}};
  if (pred != nullptr) p.parse(*pred);
  return p.g;
}

class Builder {
 public:
  explicit Builder(const CompilationUnit& unit) : unit_(unit) {}

  ProgramModel build() {
    for (const auto& item : unit_.program->items) {
      if (item.decl) seq_stmt(*item.decl);
      if (item.func && item.func->body) {
        fn_ = item.func.get();
        seq_stmt(*item.func->body);
        fn_ = nullptr;
      }
    }
    return std::move(model_);
  }

 private:
  LaneElem lane_from(const Symbol* set_sym) {
    LaneElem le;
    le.set = set_sym;
    if (set_sym != nullptr && set_sym->index_set != nullptr) {
      const auto* info = set_sym->index_set;
      le.elem = info->elem;
      le.size = static_cast<std::int64_t>(info->values.size());
      if (!info->values.empty()) {
        auto [lo, hi] =
            std::minmax_element(info->values.begin(), info->values.end());
        le.min_value = *lo;
        le.max_value = *hi;
      }
    }
    return le;
  }

  // --- sequential context: find constructs, turn reduces into sites ------

  void seq_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kExpr:
        seq_expr(*static_cast<const ExprStmt&>(s).expr);
        return;
      case StmtKind::kCompound:
        for (const auto& c : static_cast<const CompoundStmt&>(s).body) {
          seq_stmt(*c);
        }
        return;
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        seq_expr(*i.cond);
        seq_stmt(*i.then_stmt);
        if (i.else_stmt) seq_stmt(*i.else_stmt);
        return;
      }
      case StmtKind::kWhile: {
        const auto& w = static_cast<const WhileStmt&>(s);
        seq_expr(*w.cond);
        seq_stmt(*w.body);
        return;
      }
      case StmtKind::kFor: {
        const auto& f = static_cast<const ForStmt&>(s);
        if (f.init) seq_stmt(*f.init);
        if (f.cond) seq_expr(*f.cond);
        if (f.step) seq_expr(*f.step);
        seq_stmt(*f.body);
        return;
      }
      case StmtKind::kReturn: {
        const auto& r = static_cast<const ReturnStmt&>(s);
        if (r.value) seq_expr(*r.value);
        return;
      }
      case StmtKind::kVarDecl:
        for (const auto& d :
             static_cast<const VarDeclStmt&>(s).declarators) {
          if (d.init) seq_expr(*d.init);
        }
        return;
      case StmtKind::kUcConstruct:
        construct(static_cast<const UcConstructStmt&>(s));
        return;
      case StmtKind::kMapSection:
        map_section(static_cast<const MapSectionStmt&>(s));
        return;
      default:
        return;
    }
  }

  // Reductions evaluated at a sequential position become their own sites.
  void seq_expr(const Expr& e) {
    AccessSet as;
    collect_accesses(e, as);
    std::unordered_map<const ReduceExpr*, std::size_t> index;
    for (const auto& a : as.accesses) {
      if (a.reduce == nullptr) continue;
      auto [it, inserted] = index.try_emplace(a.reduce, model_.sites.size());
      if (inserted) {
        ParSite site;
        site.reduce = a.reduce;
        site.function = fn_;
        site.lanes = lane_stack_;
        site.guards.push_back(Guard{});
        model_.sites.push_back(std::move(site));
      }
      model_.sites[it->second].accesses.push_back(SiteAccess{a, -1});
    }
  }

  // Inside a parallel arm: only nested constructs start new work; plain
  // accesses (including reduce-bound ones) already belong to the arm.
  void nested_scan(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kCompound:
        for (const auto& c : static_cast<const CompoundStmt&>(s).body) {
          nested_scan(*c);
        }
        return;
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        nested_scan(*i.then_stmt);
        if (i.else_stmt) nested_scan(*i.else_stmt);
        return;
      }
      case StmtKind::kWhile:
        nested_scan(*static_cast<const WhileStmt&>(s).body);
        return;
      case StmtKind::kFor:
        nested_scan(*static_cast<const ForStmt&>(s).body);
        return;
      case StmtKind::kUcConstruct:
        construct(static_cast<const UcConstructStmt&>(s));
        return;
      case StmtKind::kMapSection:
        map_section(static_cast<const MapSectionStmt&>(s));
        return;
      default:
        return;
    }
  }

  void collect_per_lane(const Stmt& s,
                       std::unordered_set<const Symbol*>& out) {
    switch (s.kind) {
      case StmtKind::kVarDecl:
        for (const auto& d :
             static_cast<const VarDeclStmt&>(s).declarators) {
          if (d.symbol != nullptr) out.insert(d.symbol);
        }
        return;
      case StmtKind::kCompound:
        for (const auto& c : static_cast<const CompoundStmt&>(s).body) {
          collect_per_lane(*c, out);
        }
        return;
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        collect_per_lane(*i.then_stmt, out);
        if (i.else_stmt) collect_per_lane(*i.else_stmt, out);
        return;
      }
      case StmtKind::kWhile:
        collect_per_lane(*static_cast<const WhileStmt&>(s).body, out);
        return;
      case StmtKind::kFor: {
        const auto& f = static_cast<const ForStmt&>(s);
        if (f.init) collect_per_lane(*f.init, out);
        collect_per_lane(*f.body, out);
        return;
      }
      default:
        return;
    }
  }

  void construct(const UcConstructStmt& u) {
    if (u.op == UcOp::kSeq && lane_stack_.empty()) {
      // Pure sequential iteration: the elements are uniform values.
      for (const auto& block : u.blocks) {
        if (block.pred) seq_expr(*block.pred);
        seq_stmt(*block.body);
      }
      if (u.others) seq_stmt(*u.others);
      return;
    }

    ParSite site;
    site.construct = &u;
    site.function = fn_;
    site.op = u.op;
    site.starred = u.starred;
    site.lanes = lane_stack_;
    if (u.op != UcOp::kSeq) {
      for (const auto* set : u.index_set_syms) {
        site.lanes.push_back(lane_from(set));
      }
    }

    for (const auto& block : u.blocks) {
      int guard_index = static_cast<int>(site.guards.size());
      site.guards.push_back(parse_guard(block.pred.get(), site));
      if (block.pred) {
        AccessSet ps;
        collect_accesses(*block.pred, ps);
        site.has_user_call |= ps.has_user_call;
        for (const auto& a : ps.accesses) {
          site.accesses.push_back(SiteAccess{a, -1});
        }
      }
      AccessSet bs;
      collect_accesses(*block.body, bs, /*enter_constructs=*/false);
      site.has_user_call |= bs.has_user_call;
      for (const auto& a : bs.accesses) {
        site.accesses.push_back(SiteAccess{a, guard_index});
      }
      collect_per_lane(*block.body, site.per_lane);
    }
    if (u.others) {
      Guard og;
      og.is_others = true;
      for (const auto& g : site.guards) {
        og.data_dependent |= g.data_dependent;
      }
      int guard_index = static_cast<int>(site.guards.size());
      site.guards.push_back(og);
      AccessSet os;
      collect_accesses(*u.others, os, /*enter_constructs=*/false);
      site.has_user_call |= os.has_user_call;
      for (const auto& a : os.accesses) {
        site.accesses.push_back(SiteAccess{a, guard_index});
      }
      collect_per_lane(*u.others, site.per_lane);
    }

    std::vector<LaneElem> site_lanes = site.lanes;
    model_.sites.push_back(std::move(site));

    std::vector<LaneElem> saved = lane_stack_;
    lane_stack_ = std::move(site_lanes);
    for (const auto& block : u.blocks) nested_scan(*block.body);
    if (u.others) nested_scan(*u.others);
    lane_stack_ = std::move(saved);
  }

  void map_section(const MapSectionStmt& m) {
    for (const auto& mapping : m.mappings) {
      if (mapping.target_symbol != nullptr) {
        model_.mappings.push_back(
            MappingRef{&mapping, mapping.target_symbol});
      }
      if (mapping.kind != MapKind::kPermute ||
          mapping.target_symbol == nullptr ||
          mapping.source_symbol == nullptr ||
          mapping.index_set_syms.size() != 1 ||
          mapping.target_subscripts.size() != 1 ||
          mapping.source_subscripts.size() != 1) {
        continue;
      }
      const Symbol* set = mapping.index_set_syms[0];
      if (set == nullptr || set->index_set == nullptr) continue;
      const Symbol* elem = set->index_set->elem;

      Placement p;
      p.mapping = &mapping;
      auto g = xform::linearize(*mapping.target_subscripts[0]);
      auto f = xform::linearize(*mapping.source_subscripts[0]);
      bool g_ok = g.exact && g.terms.size() == 1 && g.terms[0].sym == elem &&
                  (g.terms[0].coeff == 1 || g.terms[0].coeff == -1);
      bool f_ok = f.exact &&
                  (f.terms.empty() ||
                   (f.terms.size() == 1 && f.terms[0].sym == elem));
      if (g_ok && f_ok && !f.terms.empty()) {
        // v = gc*u + g0  =>  u = gc*(v - g0);  pos = fc*u + f0.
        std::int64_t gc = g.terms[0].coeff;
        std::int64_t fc = f.terms[0].coeff;
        p.affine = true;
        p.coeff = fc * gc;
        p.offset = f.constant - fc * gc * g.constant;
      }
      auto [it, inserted] =
          model_.placements.try_emplace(mapping.target_symbol, p);
      if (!inserted) it->second.affine = false;  // ambiguous: two permutes
    }
  }

  const CompilationUnit& unit_;
  ProgramModel model_;
  std::vector<LaneElem> lane_stack_;
  const FuncDecl* fn_ = nullptr;
};

std::string canonical_uniform_key(
    const std::vector<xform::LinearTerm>& terms) {
  std::vector<const xform::LinearTerm*> sorted;
  sorted.reserve(terms.size());
  for (const auto& t : terms) sorted.push_back(&t);
  std::sort(sorted.begin(), sorted.end(),
            [](const xform::LinearTerm* a, const xform::LinearTerm* b) {
              return a->sym < b->sym;
            });
  std::ostringstream os;
  for (const auto* t : sorted) {
    os << static_cast<const void*>(t->sym) << '*' << t->coeff << '+';
  }
  return os.str();
}

DimView view_from_form(const xform::LinearForm& form, const ParSite& site,
                       const std::unordered_set<const Symbol*>& scan_elems) {
  DimView v;
  if (!form.exact) return v;  // kUnknown

  std::vector<xform::LinearTerm> lane_terms, scan_terms, uniform_terms;
  for (const auto& t : form.terms) {
    if (site.per_lane.count(t.sym) != 0) return v;  // per-lane: kUnknown
    if (site.is_lane_elem(t.sym)) {
      lane_terms.push_back(t);
    } else if (scan_elems.count(t.sym) != 0) {
      scan_terms.push_back(t);
    } else if (t.sym->kind == SymbolKind::kIndexElem ||
               t.sym->kind == SymbolKind::kGlobalVar ||
               t.sym->kind == SymbolKind::kLocalVar ||
               t.sym->kind == SymbolKind::kParam) {
      // Outer (sequential / enclosing-reduce) elements and scalar
      // variables hold one value per statement execution: uniform.
      uniform_terms.push_back(t);
    } else {
      return v;  // kUnknown
    }
  }

  if (!scan_terms.empty()) {
    v.kind = DimKind::kScan;
    v.elem = scan_terms[0].sym;
    v.coeff = scan_terms[0].coeff;
    v.offset = form.constant;
    v.uniform_key = canonical_uniform_key(uniform_terms);
    return v;
  }
  if (lane_terms.empty()) {
    v.kind = DimKind::kUniform;
    v.offset = form.constant;
    v.uniform_key = canonical_uniform_key(uniform_terms);
    return v;
  }
  if (lane_terms.size() > 1) {
    v.kind = DimKind::kMulti;
    return v;
  }
  v.elem = lane_terms[0].sym;
  v.coeff = lane_terms[0].coeff;
  v.offset = form.constant;
  v.uniform_key = canonical_uniform_key(uniform_terms);
  if (v.coeff == 1 && v.uniform_key.empty()) {
    v.kind = v.offset == 0 ? DimKind::kIdent : DimKind::kOffset;
  } else {
    v.kind = DimKind::kScaled;
  }
  return v;
}

}  // namespace

ProgramModel build_model(const CompilationUnit& unit) {
  return Builder(unit).build();
}

std::vector<DimView> subscript_views(const ParSite& site, const SiteAccess& a,
                                     const ProgramModel& model,
                                     bool apply_placement) {
  std::vector<DimView> views;
  const SubscriptExpr* sub = a.access.subscript;
  if (sub == nullptr) return views;

  std::unordered_set<const Symbol*> scan_elems;
  const ReduceExpr* reduce = a.access.reduce;
  if (reduce == nullptr) reduce = site.reduce;
  if (reduce != nullptr) {
    for (const auto* set : reduce->index_set_syms) {
      if (set != nullptr && set->index_set != nullptr) {
        scan_elems.insert(set->index_set->elem);
      }
    }
  }

  const Placement* placement = nullptr;
  if (apply_placement) {
    auto it = model.placements.find(a.access.base);
    if (it != model.placements.end()) placement = &it->second;
  }

  for (const auto& idx : sub->indices) {
    auto form = xform::linearize(*idx);
    if (placement != nullptr && sub->indices.size() == 1) {
      if (placement->affine) {
        // Physical position of element v is coeff*v + offset.
        form = xform::linear_scale(form, placement->coeff);
        form.constant += placement->offset;
      } else {
        form.exact = false;  // scrambled placement: kUnknown -> router
      }
    }
    views.push_back(view_from_form(form, site, scan_elems));
  }
  return views;
}

}  // namespace uc::analysis
