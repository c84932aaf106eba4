// Candidate generation for the mapping optimiser (docs/MAPPING.md):
// enumerates candidate `map` sections (affine permutes, folds, copies) per
// array, proves each legal or blocked with the dependence pass, and
// rewrites a unit to carry chosen candidates.
//
// This layer ranks nothing: `uc::optimize_map` (the `ucc optimize-map`
// subcommand) sits above it and replays each legal candidate on the
// simulated machine, so the VM's charge path is the only cost model a
// mapping is chosen by.
#pragma once

#include <string>
#include <vector>

#include "analysis/depend.hpp"
#include "analysis/model.hpp"

namespace uc::analysis {

enum class MapChoiceKind : std::uint8_t { kIdentity, kPermute, kFold, kCopy };

const char* map_choice_kind_name(MapChoiceKind k);

// One remapping decision for one array.  For permutes the placement is
// pos(v) = coeff*v + offset; folds pair v with extent-1-v; copies
// replicate once per element of `set`.
struct MapChoice {
  MapChoiceKind kind = MapChoiceKind::kIdentity;
  const lang::Symbol* array = nullptr;
  const lang::Symbol* set = nullptr;  // mapping index set (non-identity)
  std::int64_t coeff = 1;
  std::int64_t offset = 0;
  std::int64_t extent = 0;  // 1-D extent (permute / fold)
  std::string text;         // canonical mapping text, e.g. "copy (I) d"
  std::string proof;        // dependence-legality proof (legal choices)
};

struct Candidate {
  MapChoice choice;
  bool legal = false;
  // The array's existing mapping already places it so: a copy when a map
  // section copies it (replicated reads are local whatever the set), a
  // permute with the existing affine placement.  Nothing to replay.
  bool current = false;
  std::string blocker;              // dependence that rejected it
  support::SourceRange blocked_at;  // interfering access, when known
};

struct ArrayPlan {
  const lang::Symbol* array = nullptr;
  // Identity first (only when a map section targets the array: dropping
  // it is then a real alternative), then permutes, fold, copy.
  std::vector<Candidate> candidates;
};

struct OptimizePlan {
  std::vector<ArrayPlan> arrays;  // sorted by array name
  std::size_t candidates_considered = 0;
  std::size_t candidates_blocked = 0;  // rejected by the dependence pass
};

OptimizePlan plan_mappings(const lang::CompilationUnit& unit,
                           const ProgramModel& model);

// Rewrites a freshly compiled unit to carry `choices`: existing top-level
// map sections lose every mapping that targets a chosen array (the choice
// replaces them), and the chosen section is appended as the last top-level
// item so startup applies it after all declarations.  Re-runs semantic
// analysis; false when the rewrite does not pass it.
bool apply_choices(lang::CompilationUnit& unit,
                   const std::vector<MapChoice>& choices);

}  // namespace uc::analysis
