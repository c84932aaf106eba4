#include "analysis/pass.hpp"

namespace uc::analysis {

std::uint32_t PassContext::line(support::SourceLoc loc) const {
  if (unit.file == nullptr) return 0;
  return unit.file->line_col(loc).line;
}

void PassManager::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

void PassManager::run(const lang::CompilationUnit& unit, Report& report,
                      const cm::CostModel& cost) const {
  ProgramModel model = build_model(unit);
  PassContext ctx{unit, model, report, cost};
  for (const auto& pass : passes_) pass->run(ctx);
}

Report run_default_analysis(const lang::CompilationUnit& unit,
                            const cm::CostModel& cost) {
  PassManager pm;
  pm.add(make_interference_pass());
  pm.add(make_comm_pass());
  Report report;
  pm.run(unit, report, cost);
  return report;
}

}  // namespace uc::analysis
