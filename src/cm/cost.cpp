#include "cm/cost.hpp"

#include <sstream>

namespace uc::cm {

CostStats& CostStats::operator+=(const CostStats& o) {
  for (const auto field : kCostStatsFields) this->*field += o.*field;
  return *this;
}

CostStats& CostStats::operator-=(const CostStats& o) {
  for (const auto field : kCostStatsFields) this->*field -= o.*field;
  return *this;
}

std::string CostStats::to_string(const CostModel& model) const {
  std::ostringstream os;
  os << "cycles=" << cycles << " (" << model.cycles_to_seconds(cycles)
     << " s @" << model.clock_hz / 1e6 << "MHz)"
     << " vector_ops=" << vector_ops << " news_ops=" << news_ops
     << " router_ops=" << router_ops << " router_msgs=" << router_messages
     << " reductions=" << reductions << " global_ors=" << global_ors
     << " broadcasts=" << broadcasts << " frontend_ops=" << frontend_ops;
  // Robustness counters only when the layer did anything, so faults-off
  // stats render exactly as before the layer existed.
  if (faults != 0 || retries != 0 || rollbacks != 0 || checkpoints != 0) {
    os << " faults=" << faults << " retries=" << retries
       << " rollbacks=" << rollbacks << " checkpoints=" << checkpoints;
  }
  // Plan-cache counter only when the cache fired: a run that repeats no
  // synchronous statement prints none.
  if (plan_hits != 0) {
    os << " plan_hits=" << plan_hits;
  }
  // Durable-checkpoint counters, each gated on its own activity so a
  // resumed run's stats line differs from the uninterrupted baseline only
  // in the resume count itself (soak compares the cycles= field).
  if (durable_checkpoints != 0) {
    os << " durable_checkpoints=" << durable_checkpoints;
  }
  if (resumes != 0) {
    os << " resumes=" << resumes;
  }
  return os.str();
}

}  // namespace uc::cm
