// Communication-plan cache for the simulated CM front end.
//
// On the real machine the front end spends significant time per statement
// computing router permutations, NEWS shift schedules and scan trees before
// it can stream microcode to the sequencer.  Inside a loop those plans are
// identical from one iteration to the next whenever the mapping, the
// geometry and the access signature of the statement have not changed — so
// we cache them.  A cache hit replays the recorded charge recipe with the
// reduced `plan_issue_overhead` instead of the full `issue_overhead`, which
// is exactly the saving a plan-reusing front end would see.
//
// The cache stores *charge recipes*, never data: dynamic communication
// statistics (which lanes actually went through the router this round) are
// always recomputed by the executing engine, so data-dependent behaviour
// stays honest.  Keys are caller-computed signatures covering (mapping
// epoch, geometry, access/structure signature); the VM builds them in
// interp_expr.cpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cm/machine.hpp"

namespace uc::cm {

// One front-end charge recorded while a statement was first issued.
struct PlanCharge {
  enum class Kind : std::uint8_t {
    kFrontend,  // charge_frontend(n)
    kVectorOp,  // charge_vector_op(n, m) — planned on replay
    kRouter,    // charge_router(n, m)
    kReduce,    // charge_reduce(n, m)   — planned on replay
  };
  Kind kind = Kind::kFrontend;
  std::int64_t n = 0;  // VP-set size (op count for kFrontend)
  std::int64_t m = 1;  // per-VP ops / router messages / reduce elems
};

// A processor-optimisation decision (paper §4) recorded on an AST node
// while charging; replays must re-apply it so the executing engine makes
// the same partitioning choice.  Opaque to the cm layer — the VM owns the
// node type and the cast back.
struct PlanAnnotation {
  const void* site = nullptr;
  bool optimized = false;
};

struct Plan {
  std::vector<PlanCharge> charges;
  std::vector<PlanAnnotation> annotations;
  std::uint64_t hits = 0;
};

class PlanCache {
 public:
  // nullptr on miss.
  Plan* find(std::uint64_t key);
  Plan& insert(std::uint64_t key, Plan plan);
  void clear() { plans_.clear(); }
  std::size_t size() const { return plans_.size(); }
  // Read-only view of the charge-recipe entries, for durable-snapshot
  // serialization (docs/ROBUSTNESS.md "Durable checkpoints & resume").
  const std::unordered_map<std::uint64_t, Plan>& entries() const {
    return plans_;
  }

  // Issue every recorded charge against `machine` with the reduced planned
  // issue overhead and count the hit.  Re-applying annotations is the
  // caller's job (the node type lives above this layer).
  static void replay(Machine& machine, Plan& plan);

  // Incremental key mixing (splitmix-style avalanche) for building
  // signatures out of dims, symbols and flags.
  static std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }

 private:
  std::unordered_map<std::uint64_t, Plan> plans_;
};

}  // namespace uc::cm
