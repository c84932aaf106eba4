// Execution profiler: per-source-site attribution of modeled machine
// cycles, communication operations, and host wall time (docs/PROFILING.md).
//
// The VM (both the tree-walk and the bytecode engine) maintains a stack of
// attribution scopes, one per executing source site — a par/seq/solve/oneof
// construct, a synchronous statement inside one, a front-end statement, a
// map section.  Entering a scope flushes the cost accrued so far to the
// site that was on top, so every charged cycle lands in exactly one site's
// *self* bucket: summing Site::self over all sites reproduces the
// machine's aggregate CostStats for the run.  Cost deltas are snapshots of
// the machine's CostStats counters, which are charged from the issuing
// thread only, so the profiler needs no synchronisation.
//
// When trace capture is on, every scope exit also records a Chrome
// trace-event (complete "X" event) so the scope stack can be loaded into
// chrome://tracing (see prof/report.hpp for the JSON export).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cm/cost.hpp"

namespace uc::prof {

// The tier that ran a synchronous statement's lanes.
enum class Tier : std::uint8_t { kWalk, kBytecode, kNative };

struct SiteId {
  std::int32_t index = -1;
  bool valid() const { return index >= 0; }
};

// One attributed source site.  `self` holds the exclusive cost deltas
// (time on top of the scope stack); entries counts scope activations.
struct Site {
  std::string kind;   // "par", "*par", "seq", "solve", "stmt", "fe", ...
  std::string file;
  std::uint32_t line = 0;
  std::uint32_t col = 0;
  std::uint32_t begin_offset = 0;  // source byte range, for static joins
  std::uint32_t end_offset = 0;
  std::string text;  // the site's own source text, on one line

  std::uint64_t entries = 0;
  cm::CostStats self;               // exclusive cost; sums to the aggregate
  std::uint64_t self_wall_ns = 0;   // exclusive host wall time
  std::uint64_t pool_chunks = 0;    // host-pool chunks while on top
  std::uint64_t bytecode_stmts = 0; // statements run by a compiled kernel
  std::uint64_t native_stmts = 0;   // of bytecode_stmts: on the native tier
  std::uint64_t walk_stmts = 0;     // statements run on the tree walk
  std::uint64_t fused_stmts = 0;    // statements run as members of a
                                    // group (docs/VM.md "Fusion")

  // Filled by the static-vs-dynamic join (uc::Program::profile): the
  // `ucc analyze` communication classes whose accesses fall inside this
  // site's source range, e.g. "local+news"; empty when not joined.
  std::string static_classes;
};

// One completed scope occurrence (Chrome "X" complete event).
struct TraceEvent {
  std::int32_t site = -1;
  std::uint64_t start_ns = 0;  // since profiler construction
  std::uint64_t dur_ns = 0;
  std::uint64_t cycles = 0;    // inclusive modeled-cycle delta
  std::int32_t depth = 0;      // stack depth at entry (0 = root)
};

class Profiler {
 public:
  explicit Profiler(bool capture_trace = false)
      : capture_trace_(capture_trace), t0_(Clock::now()) {}

  bool capture_trace() const { return capture_trace_; }

  // Interns a site; calling again with the same identity returns a new id
  // (callers cache ids per AST node, see vm::detail::Impl::prof_site).
  SiteId intern(std::string kind, std::string file, std::uint32_t line,
                std::uint32_t col, std::uint32_t begin_offset,
                std::uint32_t end_offset, std::string text);

  // Scope stack.  `now` is the machine's current aggregate CostStats and
  // `pool_chunks` the pool's total executed chunk count; both must be
  // sampled by the caller on the issuing thread.
  void enter(SiteId id, const cm::CostStats& now, std::uint64_t pool_chunks);
  void exit(const cm::CostStats& now, std::uint64_t pool_chunks);

  // Records which tier executed a synchronous statement for the site
  // currently on top of the scope stack (no-op when the stack is empty).
  void note_engine(Tier tier);

  // Records that the statement on top of the scope stack executed as a
  // member of a group (shows as "fused×N" in ucc profile).
  void note_fused();

  std::size_t depth() const { return stack_.size(); }
  const std::vector<Site>& sites() const { return sites_; }
  std::vector<Site>& sites() { return sites_; }
  const std::vector<TraceEvent>& events() const { return events_; }

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct ScopeFrame {
    std::int32_t site = -1;
    cm::CostStats resume;        // stats snapshot when (re)gaining the top
    std::uint64_t resume_ns = 0;
    std::uint64_t resume_chunks = 0;
    cm::CostStats at_entry;      // stats snapshot at scope entry (inclusive)
    std::uint64_t entry_ns = 0;
  };

  // Adds the delta since the top frame's resume point to its site.
  void flush_top(const cm::CostStats& now, std::uint64_t now_wall,
                 std::uint64_t pool_chunks);

  bool capture_trace_ = false;
  Clock::time_point t0_;
  std::vector<Site> sites_;
  std::vector<ScopeFrame> stack_;
  std::vector<TraceEvent> events_;
};

}  // namespace uc::prof
