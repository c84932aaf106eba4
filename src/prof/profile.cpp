#include "prof/profile.hpp"

namespace uc::prof {

SiteId Profiler::intern(std::string kind, std::string file,
                        std::uint32_t line, std::uint32_t col,
                        std::uint32_t begin_offset, std::uint32_t end_offset,
                        std::string text) {
  Site site;
  site.kind = std::move(kind);
  site.file = std::move(file);
  site.line = line;
  site.col = col;
  site.begin_offset = begin_offset;
  site.end_offset = end_offset;
  site.text = std::move(text);
  sites_.push_back(std::move(site));
  return SiteId{static_cast<std::int32_t>(sites_.size() - 1)};
}

void Profiler::flush_top(const cm::CostStats& now, std::uint64_t now_wall,
                         std::uint64_t pool_chunks) {
  ScopeFrame& top = stack_.back();
  Site& site = sites_[static_cast<std::size_t>(top.site)];
  site.self += now - top.resume;
  site.self_wall_ns += now_wall - top.resume_ns;
  site.pool_chunks += pool_chunks - top.resume_chunks;
}

void Profiler::enter(SiteId id, const cm::CostStats& now,
                     std::uint64_t pool_chunks) {
  if (!id.valid()) return;
  const std::uint64_t wall = now_ns();
  if (!stack_.empty()) flush_top(now, wall, pool_chunks);
  ScopeFrame frame;
  frame.site = id.index;
  frame.resume = now;
  frame.resume_ns = wall;
  frame.resume_chunks = pool_chunks;
  frame.at_entry = now;
  frame.entry_ns = wall;
  stack_.push_back(frame);
  sites_[static_cast<std::size_t>(id.index)].entries += 1;
}

void Profiler::exit(const cm::CostStats& now, std::uint64_t pool_chunks) {
  if (stack_.empty()) return;
  const std::uint64_t wall = now_ns();
  flush_top(now, wall, pool_chunks);
  const ScopeFrame top = stack_.back();
  stack_.pop_back();
  if (capture_trace_) {
    TraceEvent ev;
    ev.site = top.site;
    ev.start_ns = top.entry_ns;
    ev.dur_ns = wall - top.entry_ns;
    ev.cycles = now.cycles - top.at_entry.cycles;
    ev.depth = static_cast<std::int32_t>(stack_.size());
    events_.push_back(ev);
  }
  if (!stack_.empty()) {
    ScopeFrame& parent = stack_.back();
    parent.resume = now;
    parent.resume_ns = wall;
    parent.resume_chunks = pool_chunks;
  }
}

void Profiler::note_fused() {
  if (stack_.empty()) return;
  sites_[static_cast<std::size_t>(stack_.back().site)].fused_stmts += 1;
}

void Profiler::note_engine(Tier tier) {
  if (stack_.empty()) return;
  Site& site = sites_[static_cast<std::size_t>(stack_.back().site)];
  if (tier == Tier::kWalk) {
    site.walk_stmts += 1;
    return;
  }
  site.bytecode_stmts += 1;
  if (tier == Tier::kNative) site.native_stmts += 1;
}

}  // namespace uc::prof
