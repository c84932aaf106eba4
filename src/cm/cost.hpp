// Cost model for the simulated Connection Machine (CM-2 style).
//
// The paper's performance results hinge on *which* operations a program
// issues: front-end scalar work, SIMD vector instructions over a set of
// virtual processors (VPs), NEWS-grid neighbour communication, general
// router communication, log-depth scans/reductions, and global-OR.  We
// charge each category in machine cycles.  A VP set larger than the number
// of physical processors is time-sliced, multiplying per-VP work by the VP
// ratio — exactly the CM-2's virtual-processor mechanism.
#pragma once

#include <cstdint>
#include <string>

namespace uc::cm {

struct CostModel {
  // Machine configuration.
  std::uint64_t physical_processors = 16384;  // a 16K CM-2, as in the paper
  double clock_hz = 7.0e6;                    // CM-2 ran at ~7 MHz

  // Per-operation cycle costs.
  std::uint64_t issue_overhead = 30;  // front end -> sequencer -> broadcast
  std::uint64_t alu_op = 4;           // one elementwise op, per VP time-slice
  std::uint64_t mem_op = 4;           // local memory read/write, per slice
  std::uint64_t news_op = 12;         // NEWS-grid neighbour access, per slice
  std::uint64_t router_op = 600;      // general router delivery, per wave
  std::uint64_t scan_step = 20;       // one step of a log-depth scan/reduce
  std::uint64_t global_or_op = 12;    // wired global-OR (cheap hardware)
  std::uint64_t broadcast_op = 15;    // front end broadcast to all VPs
  std::uint64_t frontend_op = 2;      // scalar op on the front end (Sun-4)
  // Issue overhead when a cached communication/issue plan is replayed: the
  // front end skips address computation and plan construction and only
  // streams the pre-built instruction sequence to the sequencer.
  std::uint64_t plan_issue_overhead = 6;

  // Number of time slices needed to run one SIMD instruction on a VP set of
  // size n: ceil(n / physical_processors), at least 1.
  std::uint64_t vp_ratio(std::uint64_t n) const {
    if (n == 0) return 1;
    return (n + physical_processors - 1) / physical_processors;
  }

  double cycles_to_seconds(std::uint64_t cycles) const {
    return static_cast<double>(cycles) / clock_hz;
  }
};

// Aggregate counters.  Charged once per issued instruction by the issuing
// thread (the data-parallel *host* execution inside an instruction is
// parallel, but instruction issue is serial, as on the real front end).
struct CostStats {
  std::uint64_t cycles = 0;

  std::uint64_t vector_ops = 0;     // SIMD elementwise instructions issued
  std::uint64_t news_ops = 0;       // instructions that used NEWS access
  std::uint64_t router_ops = 0;     // instructions that used the router
  std::uint64_t router_messages = 0;  // individual messages through the router
  std::uint64_t reductions = 0;     // reduce/scan instructions
  std::uint64_t global_ors = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t frontend_ops = 0;   // scalar front-end operations

  // Robustness layer (docs/ROBUSTNESS.md).  All zero unless fault
  // injection / checkpointing is enabled, so faults-off runs are
  // bit-identical to builds without the layer.
  std::uint64_t faults = 0;       // failed attempts detected (checksum/ack)
  std::uint64_t retries = 0;      // instruction re-issues after a fault
  std::uint64_t rollbacks = 0;    // VM statement/construct replays
  std::uint64_t checkpoints = 0;  // VM state snapshots captured

  // Communication-plan cache (src/cm/plan_cache.hpp).  Zero unless some
  // synchronous statement repeats and replays its cached issue plan.
  std::uint64_t plan_hits = 0;    // statements issued from a cached plan

  // Durable checkpoints (docs/ROBUSTNESS.md "Durable checkpoints &
  // resume").  Host-side bookkeeping only — writing a snapshot to disk
  // and restoring one never charges modeled cycles beyond the in-memory
  // capture cost, so --checkpoint-dir is cycle-neutral.
  std::uint64_t durable_checkpoints = 0;  // snapshots persisted to disk
  std::uint64_t resumes = 0;              // restores from a durable snapshot

  CostStats& operator+=(const CostStats& o);
  // Counter-wise difference; well-defined only for b -= a where a is an
  // earlier snapshot of the same accumulator (counters never decrease).
  CostStats& operator-=(const CostStats& o);
  friend CostStats operator-(CostStats a, const CostStats& b) {
    a -= b;
    return a;
  }
  friend bool operator==(const CostStats&, const CostStats&) = default;
  std::string to_string(const CostModel& model) const;
};

// Every CostStats counter, in declaration order: the one list behind
// += / -= and the stats record of a snapshot payload
// (src/ucvm/checkpoint.cpp), whose byte order it fixes.
inline constexpr std::uint64_t CostStats::* kCostStatsFields[] = {
    &CostStats::cycles,          &CostStats::vector_ops,
    &CostStats::news_ops,        &CostStats::router_ops,
    &CostStats::router_messages, &CostStats::reductions,
    &CostStats::global_ors,      &CostStats::broadcasts,
    &CostStats::frontend_ops,    &CostStats::faults,
    &CostStats::retries,         &CostStats::rollbacks,
    &CostStats::checkpoints,     &CostStats::plan_hits,
    &CostStats::durable_checkpoints, &CostStats::resumes,
};
static_assert(sizeof(CostStats) ==
                  sizeof(kCostStatsFields) / sizeof(kCostStatsFields[0]) *
                      sizeof(std::uint64_t),
              "kCostStatsFields must list every CostStats counter");

}  // namespace uc::cm
