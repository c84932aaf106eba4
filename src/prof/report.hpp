// Rendering for profiler results: the hot-site table, the machine-readable
// site JSON, and the Chrome trace-event export (docs/PROFILING.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cm/cost.hpp"
#include "prof/profile.hpp"

namespace uc::prof {

// Host thread-pool utilization for one run (snapshot of the pool counters).
struct PoolUtilization {
  unsigned threads = 1;
  std::uint64_t jobs = 0;                  // parallel regions executed
  std::vector<std::uint64_t> chunks;       // chunks per worker id
};

struct TableOptions {
  std::size_t max_rows = 0;   // 0 = all sites with nonzero self cost
  bool show_static = true;    // static-vs-dynamic join column
};

// The sorted hot-site table: one row per site, hottest (self modeled
// cycles) first, followed by a totals line and the pool utilization.
std::string render_table(const std::vector<Site>& sites,
                         const cm::CostModel& model,
                         const cm::CostStats& total,
                         const PoolUtilization& pool,
                         const TableOptions& opts = {});

// Machine-readable profile: {"total_cycles":..., "sites":[...], "pool":...}.
std::string sites_json(const std::vector<Site>& sites,
                       const cm::CostStats& total,
                       const PoolUtilization& pool);

// Chrome trace-event JSON (an array of complete "X" events, loadable by
// chrome://tracing and Perfetto).  Wall-clock timestamps in microseconds;
// each event carries the inclusive modeled-cycle delta in args.
std::string trace_json(const std::vector<Site>& sites,
                       const std::vector<TraceEvent>& events);

}  // namespace uc::prof
