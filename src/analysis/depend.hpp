// Array dependence summary and mapping-legality proofs (docs/MAPPING.md).
//
// The mapping optimiser may only emit a candidate `map` section when the
// dependence pass proves it semantics- and model-preserving:
//
//   permute  the placement pos(v) = coeff*v + offset must relocate the
//            array exactly as declared.  A non-bijective placement (a
//            shift) leaves boundary positions sharing a processor; that is
//            legal only when no parallel step writes two co-located
//            elements (write-write interference across the permute) —
//            otherwise the candidate is rejected fail-closed.
//   fold     pairs element v with extent-1-v on one processor.  Legal only
//            when every parallel access provably stays within one half
//            (the piecewise placement is then exact) and no parallel step
//            writes both members of a folded pair.
//   copy     replicates the array; every parallel write must then be
//            broadcast to all copies.  Legal only when each write's
//            element set is statically known (affine subscripts), so the
//            broadcast update is provable.
//
// All tests are conservative: anything the prover cannot express blocks
// the candidate (fail closed), never the other way around.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/model.hpp"

namespace uc::analysis {

// One parallel access to a 1-D array, reduced to the affine window of
// element values it can touch: value = coeff*elem + offset with elem in
// [elem_lo, elem_hi].  `exact` is false when the subscript defied affine
// analysis (the window then conservatively covers the whole array).
struct AccessWindow {
  const ParSite* site = nullptr;
  std::size_t site_index = 0;
  bool is_write = false;
  bool exact = false;
  // True when the access touches a single element per parallel step (a
  // uniform subscript): it can never collide with itself across lanes.
  bool single_per_step = false;
  std::int64_t coeff = 0;
  std::int64_t offset = 0;
  std::int64_t elem_lo = 0;
  std::int64_t elem_hi = -1;
  support::SourceRange range;
};

struct ArrayDep {
  const lang::Symbol* array = nullptr;
  std::vector<AccessWindow> windows;  // 1-D arrays only
  std::size_t parallel_reads = 0;
  std::size_t parallel_writes = 0;
  // A parallel write whose subscripts are not affine in statically known
  // symbols (e.g. a[p[i]]): blocks copy (the broadcast update set is not
  // provable) and makes every interference test conservative.
  bool any_nonaffine_write = false;
};

struct DependSummary {
  std::unordered_map<const lang::Symbol*, ArrayDep> arrays;

  const ArrayDep* of(const lang::Symbol* array) const;
};

DependSummary summarize_dependences(const ProgramModel& model);

// Outcome of one legality proof.  When `legal`, `proof` states why the
// candidate preserves the model; otherwise `blocker` names the dependence
// that rejected it (the text `ucc optimize-map` lists it blocked with).
struct Legality {
  bool legal = false;
  std::string proof;
  std::string blocker;
  support::SourceRange blocked_at;  // interfering access, when known
};

// Permute with placement pos(v) = coeff*v + offset over a 1-D array of
// `extent` elements (coeff must be +1 or -1).
Legality prove_permute(const ArrayDep& dep, std::int64_t extent,
                       std::int64_t coeff, std::int64_t offset);

// Fold pairing v with extent-1-v (extent must be even).
Legality prove_fold(const ArrayDep& dep, std::int64_t extent);

// Replication of a (any-rank) array.
Legality prove_copy(const ArrayDep& dep);

}  // namespace uc::analysis
