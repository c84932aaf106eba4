#include "cm/plan_cache.hpp"

namespace uc::cm {

Plan* PlanCache::find(std::uint64_t key) {
  auto it = plans_.find(key);
  return it == plans_.end() ? nullptr : &it->second;
}

Plan& PlanCache::insert(std::uint64_t key, Plan plan) {
  return plans_[key] = std::move(plan);
}

void PlanCache::replay(Machine& machine, Plan& plan) {
  plan.hits += 1;
  machine.note_plan_hit();
  for (const auto& c : plan.charges) {
    switch (c.kind) {
      case PlanCharge::Kind::kFrontend:
        machine.charge_frontend(static_cast<std::uint64_t>(c.n));
        break;
      case PlanCharge::Kind::kVectorOp:
        machine.charge_vector_op(c.n, static_cast<std::uint64_t>(c.m),
                                 /*planned=*/true);
        break;
      case PlanCharge::Kind::kRouter:
        machine.charge_router(c.n, static_cast<std::uint64_t>(c.m));
        break;
      case PlanCharge::Kind::kReduce:
        machine.charge_reduce(c.n, c.m, /*planned=*/true);
        break;
    }
  }
}

}  // namespace uc::cm
