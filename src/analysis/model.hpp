// The analysis model: a flattened view of every parallel site in a sema'd
// program, with read/write sets, per-arm guard constraints, and affine
// views of array subscripts relative to the site's lane index elements.
//
// A "site" is either a UC construct that evaluates its body across lanes
// (par / *par / oneof / solve — seq iterates sequentially and is walked
// through, its elements becoming uniform values) or a reduction expression
// in sequential position.  Nested constructs get their own sites; the
// enclosing construct's elements stay bound as lane elements of the inner
// site.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "uclang/access.hpp"
#include "uclang/ast.hpp"
#include "uclang/frontend.hpp"
#include "uclang/symbols.hpp"
#include "xform/affine.hpp"

namespace uc::analysis {

struct LaneElem {
  const lang::Symbol* set = nullptr;
  const lang::Symbol* elem = nullptr;
  std::int64_t size = 0;
  std::int64_t min_value = 0;
  std::int64_t max_value = 0;
};

// Index-pure constraints harvested from an `st` predicate's conjuncts.
struct Congruence {
  const lang::Symbol* elem = nullptr;
  std::int64_t mod = 1;
  std::int64_t rem = 0;
};

struct ElemEq {  // a == b + diff
  const lang::Symbol* a = nullptr;
  const lang::Symbol* b = nullptr;
  std::int64_t diff = 0;
};

struct Guard {
  std::vector<Congruence> congruences;
  std::vector<const lang::Symbol*> pins;  // elem == <uniform expr>
  std::vector<ElemEq> eqs;
  // A conjunct the harvest could not express (array reads, calls, ||,
  // inequalities): the selected subset is then only over-approximated.
  bool data_dependent = false;
  bool is_others = false;

  const Congruence* congruence_on(const lang::Symbol* elem) const;
  bool pins_elem(const lang::Symbol* elem) const;
  bool has_index_constraints() const {
    return !congruences.empty() || !pins.empty() || !eqs.empty();
  }
};

struct SiteAccess {
  lang::Access access;
  // Index into ParSite::guards; -1 for accesses evaluated on every lane
  // (st predicates themselves).
  int guard_index = -1;
};

struct ParSite {
  const lang::UcConstructStmt* construct = nullptr;  // null for reduce sites
  const lang::ReduceExpr* reduce = nullptr;          // reduce-only sites
  const lang::FuncDecl* function = nullptr;          // null at global scope
  lang::UcOp op = lang::UcOp::kPar;
  bool starred = false;
  std::vector<LaneElem> lanes;  // enclosing parallel elems first, then own
  std::vector<Guard> guards;
  std::vector<SiteAccess> accesses;
  // Scalars declared inside the body: per-lane state, not shared.
  std::unordered_set<const lang::Symbol*> per_lane;
  bool has_user_call = false;

  std::uint64_t lane_count() const;
  bool is_lane_elem(const lang::Symbol* elem) const;
  const LaneElem* lane_of(const lang::Symbol* elem) const;
};

// Placement of a permuted array: pos(T[v]) = coeff * v + offset when
// affine; a non-affine permute scrambles placement (general router).
struct Placement {
  const lang::Mapping* mapping = nullptr;
  bool affine = false;
  std::int64_t coeff = 1;
  std::int64_t offset = 0;
};

struct MappingRef {
  const lang::Mapping* mapping = nullptr;
  const lang::Symbol* target = nullptr;
};

struct ProgramModel {
  std::vector<ParSite> sites;
  std::unordered_map<const lang::Symbol*, Placement> placements;
  std::vector<MappingRef> mappings;
};

ProgramModel build_model(const lang::CompilationUnit& unit);

// ---------------------------------------------------------------------------
// Affine views of one subscript dimension relative to a site's lanes
// ---------------------------------------------------------------------------

enum class DimKind : std::uint8_t {
  kIdent,    // 1*elem + 0, no uniform part
  kOffset,   // 1*elem + c (constant c != 0)
  kScaled,   // k*elem + c with k != 1, or unit elem with a runtime-uniform
             // offset — injective per lane but not grid-aligned
  kUniform,  // no lane element: same index on every lane
  kScan,     // involves a reduce-bound element (sweeps its set)
  kMulti,    // more than one lane element
  kUnknown,  // not affine, or depends on per-lane locals
};

struct DimView {
  DimKind kind = DimKind::kUnknown;
  const lang::Symbol* elem = nullptr;  // kIdent/kOffset/kScaled/kScan
  std::int64_t coeff = 0;
  std::int64_t offset = 0;
  // Canonical rendering of the runtime-uniform symbolic part ("" when the
  // offset is a pure constant); two dims with equal keys share the value.
  std::string uniform_key;
};

// Views for every dimension of an array access.  `apply_placement` runs
// 1-D subscripts through the array's permute placement (communication
// classification wants physical positions; interference wants elements).
std::vector<DimView> subscript_views(const ParSite& site, const SiteAccess& a,
                                     const ProgramModel& model,
                                     bool apply_placement);

// Value range of an index element symbol (from its set), for overlap
// reasoning about reduce-bound elements that are not site lanes.
bool elem_value_range(const lang::Symbol* elem, std::int64_t& min_v,
                      std::int64_t& max_v, std::int64_t& size);

}  // namespace uc::analysis
