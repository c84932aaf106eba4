// Pass manager for the static-analysis subsystem.
//
// Each pass sees the sema'd compilation unit plus a shared ProgramModel
// (parallel sites, guards, placements) and appends coded findings and
// communication data to the Report.  `run_default_analysis` is the one
// entry point the driver and the public API use: it builds the model once
// and runs the registered passes in order.
#pragma once

#include <memory>
#include <vector>

#include "analysis/model.hpp"
#include "analysis/report.hpp"
#include "cm/cost.hpp"
#include "uclang/frontend.hpp"

namespace uc::analysis {

struct PassContext {
  const lang::CompilationUnit& unit;
  const ProgramModel& model;
  Report& report;
  // The machine whose NEWS limit the communication classes follow.
  const cm::CostModel& cost;

  // Line number of a source location (0 when no file is attached).
  std::uint32_t line(support::SourceLoc loc) const;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual void run(PassContext& ctx) = 0;
};

class PassManager {
 public:
  void add(std::unique_ptr<Pass> pass);
  // Builds the model from `unit` and runs every pass into `report`.
  void run(const lang::CompilationUnit& unit, Report& report,
           const cm::CostModel& cost = {}) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// Factories for the built-in passes.
std::unique_ptr<Pass> make_interference_pass();
std::unique_ptr<Pass> make_comm_pass();

// Runs the default pipeline (interference + communication classifier).
Report run_default_analysis(const lang::CompilationUnit& unit,
                            const cm::CostModel& cost = {});

}  // namespace uc::analysis
