#include "prof/report.hpp"

#include <algorithm>
#include <numeric>

#include "support/str.hpp"

namespace uc::prof {

using support::format;
using support::json_escape;

namespace {

// The tier that ran the site's statements; "mixed" when several did.
std::string engine_mark(const Site& s) {
  if (s.bytecode_stmts == 0) return s.walk_stmts > 0 ? "walk" : "-";
  if (s.walk_stmts > 0) return "mixed";
  if (s.native_stmts == s.bytecode_stmts) return "native";
  return s.native_stmts == 0 ? "bc" : "mixed";
}

// A site's location, file:line:col (just the file for the program root).
// The column tells apart sites that share a line, a guard and its body.
std::string site_where(const Site& s) {
  return s.line > 0 ? format("%s:%u:%u", s.file.c_str(), s.line, s.col)
                    : s.file;
}

// Long directory prefixes crowd out the statement text; keep the tail of
// the string — the part that still identifies the site as file:line:col.
std::string left_truncate(const std::string& s, std::size_t width) {
  if (s.size() <= width) return s;
  return "..." + s.substr(s.size() - (width - 3));
}

// Indices of sites sorted hottest-first by self modeled cycles.  Ties keep
// interning (first-execution) order — never wall time, which would make
// the row order vary run to run and between engines.
std::vector<std::size_t> hot_order(const std::vector<Site>& sites) {
  std::vector<std::size_t> order(sites.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sites[a].self.cycles > sites[b].self.cycles;
                   });
  return order;
}

}  // namespace

std::string render_table(const std::vector<Site>& sites,
                         const cm::CostModel& model,
                         const cm::CostStats& total,
                         const PoolUtilization& pool,
                         const TableOptions& opts) {
  std::string out;
  // Fault/recovery columns appear only when fault injection or
  // checkpointing actually charged something, so fault-free profiles are
  // byte-identical to what they were before the fault subsystem existed.
  // The plan-cache column is always there: every engine charges
  // synchronous statements through the plan cache.  The columns are fixed
  // width, so plan$ and flt/rty/rb/ck stay aligned either way.
  bool any_faults = false;
  // And for the durable-checkpoint column: only runs that persisted a
  // snapshot to disk or restored one (`--checkpoint-dir`/`--resume`,
  // docs/ROBUSTNESS.md) show dur/res.
  bool any_durable = false;
  for (const auto& s : sites) {
    if (s.self.faults != 0 || s.self.retries != 0 || s.self.rollbacks != 0 ||
        s.self.checkpoints != 0) {
      any_faults = true;
    }
    if (s.self.durable_checkpoints != 0 || s.self.resumes != 0) {
      any_durable = true;
    }
  }
  out += format(
      "%12s %6s %9s %8s  %-23s %-9s%s%s%-6s %-12s %s\n", "self-cycles", "%",
      "host-ms", "entries", "ops v/n/r/sc/go/bc/fe", "plan$",
      any_faults ? "flt/rty/rb/ck   " : "",
      any_durable ? "dur/res  " : "", "eng",
      opts.show_static ? "static" : "", "site");

  const auto order = hot_order(sites);
  std::uint64_t sum_cycles = 0;
  for (const auto& s : sites) sum_cycles += s.self.cycles;

  std::size_t rows = 0, hidden = 0;
  for (std::size_t idx : order) {
    const Site& s = sites[idx];
    if (s.entries == 0 || (s.self.cycles == 0 && s.self_wall_ns < 1000)) {
      ++hidden;
      continue;
    }
    if (opts.max_rows != 0 && rows >= opts.max_rows) {
      ++hidden;
      continue;
    }
    ++rows;
    const double pct =
        total.cycles > 0
            ? 100.0 * static_cast<double>(s.self.cycles) /
                  static_cast<double>(total.cycles)
            : 0.0;
    const std::string mix = format(
        "%llu/%llu/%llu/%llu/%llu/%llu/%llu",
        static_cast<unsigned long long>(s.self.vector_ops),
        static_cast<unsigned long long>(s.self.news_ops),
        static_cast<unsigned long long>(s.self.router_ops),
        static_cast<unsigned long long>(s.self.reductions),
        static_cast<unsigned long long>(s.self.global_ors),
        static_cast<unsigned long long>(s.self.broadcasts),
        static_cast<unsigned long long>(s.self.frontend_ops));
    // Truncate long paths from the LEFT so the file name, line and column —
    // the part that identifies the site — always stay visible.
    const std::string where = left_truncate(site_where(s), 36);
    const std::string plan_col =
        format("%llu", static_cast<unsigned long long>(s.self.plan_hits));
    std::string fault_mix;
    if (any_faults) {
      fault_mix = format(
          "%-16s",
          format("%llu/%llu/%llu/%llu",
                 static_cast<unsigned long long>(s.self.faults),
                 static_cast<unsigned long long>(s.self.retries),
                 static_cast<unsigned long long>(s.self.rollbacks),
                 static_cast<unsigned long long>(s.self.checkpoints))
              .c_str());
    }
    std::string durable_mix;
    if (any_durable) {
      durable_mix = format(
          "%-9s",
          format("%llu/%llu",
                 static_cast<unsigned long long>(s.self.durable_checkpoints),
                 static_cast<unsigned long long>(s.self.resumes))
              .c_str());
    }
    // Sites whose statements ran as group members carry a fused×N tag
    // (N = member-statement executions, docs/VM.md "Fusion").
    std::string kind_tag = s.kind;
    if (s.fused_stmts > 0) {
      kind_tag += format(" fused\xc3\x97%llu",
                         static_cast<unsigned long long>(s.fused_stmts));
    }
    out += format(
        "%12llu %5.1f%% %9.3f %8llu  %-23s %-9s%s%s%-6s %-12s %s %s | %s\n",
        static_cast<unsigned long long>(s.self.cycles), pct,
        static_cast<double>(s.self_wall_ns) / 1e6,
        static_cast<unsigned long long>(s.entries), mix.c_str(),
        plan_col.c_str(), fault_mix.c_str(), durable_mix.c_str(),
        engine_mark(s).c_str(),
        opts.show_static
            ? (s.static_classes.empty() ? "-" : s.static_classes.c_str())
            : "",
        where.c_str(), kind_tag.c_str(), s.text.c_str());
  }
  if (hidden > 0) {
    out += format("  (%zu cold sites hidden)\n", hidden);
  }
  out += format(
      "total: %llu cycles (%.6f s @%.0fMHz), sum of sites = %llu%s\n",
      static_cast<unsigned long long>(total.cycles),
      model.cycles_to_seconds(total.cycles), model.clock_hz / 1e6,
      static_cast<unsigned long long>(sum_cycles),
      sum_cycles == total.cycles ? "" : "  ** MISMATCH **");

  out += format("host pool: %u thread%s, %llu parallel regions, "
                "chunks/worker:",
                pool.threads, pool.threads == 1 ? "" : "s",
                static_cast<unsigned long long>(pool.jobs));
  for (auto c : pool.chunks) {
    out += format(" %llu", static_cast<unsigned long long>(c));
  }
  const auto [mn, mx] =
      pool.chunks.empty()
          ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
          : std::pair<std::uint64_t, std::uint64_t>{
                *std::min_element(pool.chunks.begin(), pool.chunks.end()),
                *std::max_element(pool.chunks.begin(), pool.chunks.end())};
  if (pool.chunks.size() > 1 && mn > 0) {
    out += format(" (imbalance %.2fx)", static_cast<double>(mx) /
                                            static_cast<double>(mn));
  }
  out += "\n";
  return out;
}

std::string sites_json(const std::vector<Site>& sites,
                       const cm::CostStats& total,
                       const PoolUtilization& pool) {
  std::string out = "{\n";
  out += format("  \"total_cycles\": %llu,\n",
                static_cast<unsigned long long>(total.cycles));
  out += "  \"sites\": [\n";
  const auto order = hot_order(sites);
  bool first = true;
  for (std::size_t idx : order) {
    const Site& s = sites[idx];
    if (s.entries == 0) continue;
    if (!first) out += ",\n";
    first = false;
    out += format(
        "    {\"kind\": \"%s\", \"file\": \"%s\", \"line\": %u, "
        "\"col\": %u, \"text\": \"%s\", \"entries\": %llu, "
        "\"cycles\": %llu, \"host_ms\": %.3f, \"vector_ops\": %llu, "
        "\"news_ops\": %llu, \"router_ops\": %llu, "
        "\"router_messages\": %llu, \"reductions\": %llu, "
        "\"global_ors\": %llu, \"broadcasts\": %llu, "
        "\"frontend_ops\": %llu, \"faults\": %llu, \"retries\": %llu, "
        "\"rollbacks\": %llu, \"checkpoints\": %llu, "
        "\"durable_checkpoints\": %llu, \"resumes\": %llu, "
        "\"plan_hits\": %llu, \"pool_chunks\": %llu, "
        "\"bytecode_stmts\": %llu, \"native_stmts\": %llu, "
        "\"walk_stmts\": %llu, \"fused_stmts\": %llu, \"static\": \"%s\"}",
        json_escape(s.kind).c_str(), json_escape(s.file).c_str(), s.line,
        s.col, json_escape(s.text).c_str(),
        static_cast<unsigned long long>(s.entries),
        static_cast<unsigned long long>(s.self.cycles),
        static_cast<double>(s.self_wall_ns) / 1e6,
        static_cast<unsigned long long>(s.self.vector_ops),
        static_cast<unsigned long long>(s.self.news_ops),
        static_cast<unsigned long long>(s.self.router_ops),
        static_cast<unsigned long long>(s.self.router_messages),
        static_cast<unsigned long long>(s.self.reductions),
        static_cast<unsigned long long>(s.self.global_ors),
        static_cast<unsigned long long>(s.self.broadcasts),
        static_cast<unsigned long long>(s.self.frontend_ops),
        static_cast<unsigned long long>(s.self.faults),
        static_cast<unsigned long long>(s.self.retries),
        static_cast<unsigned long long>(s.self.rollbacks),
        static_cast<unsigned long long>(s.self.checkpoints),
        static_cast<unsigned long long>(s.self.durable_checkpoints),
        static_cast<unsigned long long>(s.self.resumes),
        static_cast<unsigned long long>(s.self.plan_hits),
        static_cast<unsigned long long>(s.pool_chunks),
        static_cast<unsigned long long>(s.bytecode_stmts),
        static_cast<unsigned long long>(s.native_stmts),
        static_cast<unsigned long long>(s.walk_stmts),
        static_cast<unsigned long long>(s.fused_stmts),
        json_escape(s.static_classes).c_str());
  }
  out += "\n  ],\n";
  out += format("  \"pool\": {\"threads\": %u, \"jobs\": %llu, \"chunks\": [",
                pool.threads, static_cast<unsigned long long>(pool.jobs));
  for (std::size_t k = 0; k < pool.chunks.size(); ++k) {
    out += format("%s%llu", k > 0 ? ", " : "",
                  static_cast<unsigned long long>(pool.chunks[k]));
  }
  out += "]}";
  out += "\n}\n";
  return out;
}

std::string trace_json(const std::vector<Site>& sites,
                       const std::vector<TraceEvent>& events) {
  // A bare array is a valid Chrome trace (the JSON Array Format); events
  // may appear in any order, chrome://tracing sorts by ts.
  std::string out = "[\n";
  for (std::size_t k = 0; k < events.size(); ++k) {
    const TraceEvent& ev = events[k];
    const Site& s = sites[static_cast<std::size_t>(ev.site)];
    const std::string name =
        s.line > 0 ? s.kind + " " + site_where(s) : s.kind;
    out += format(
        "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
        "\"args\": {\"cycles\": %llu, \"line\": %u, \"text\": \"%s\"}}%s\n",
        json_escape(name).c_str(), json_escape(s.kind).c_str(),
        static_cast<double>(ev.start_ns) / 1e3,
        static_cast<double>(ev.dur_ns) / 1e3,
        static_cast<unsigned long long>(ev.cycles), s.line,
        json_escape(s.text).c_str(), k + 1 < events.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

}  // namespace uc::prof
