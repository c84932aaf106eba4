// Communication-pattern classification (UC-A2xx + summary).
//
// Every array access inside a parallel site gets the class the engines
// charge when all its lanes share one (local, news, router: the engines'
// closed form, cm/access.hpp, for lane indices plus constants), or scan
// when the engines decide per lane.  Permute placements are composed into
// the subscripts; mappings that turn NEWS-servable patterns into router
// traffic are flagged.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/pass.hpp"
#include "cm/access.hpp"
#include "uclang/arith.hpp"

namespace uc::analysis {

namespace {

using lang::Symbol;

struct CommDecision {
  CommClass cls = CommClass::kLocal;
  std::string detail;  // why the access landed in this class
};

// The lane geometry of an access, and the array's shape and layout.
struct AccessGeometry {
  std::vector<std::int64_t> lane_dims;
  const std::vector<std::int64_t>* dims = nullptr;
  bool default_layout = true;  // no fold, and not a parameter (a slice?)
};

// Classifies one access's per-dimension views against the site's lanes.
CommDecision classify_views(const ParSite& site,
                            const std::vector<DimView>& views,
                            const AccessGeometry& geom,
                            const cm::CostModel& cost) {
  for (const auto& v : views) {
    if (v.kind == DimKind::kUnknown) {
      return {CommClass::kRouter, "subscript not affine in lane indices"};
    }
    if (v.kind == DimKind::kMulti) {
      return {CommClass::kRouter, "subscript mixes lane indices"};
    }
  }
  for (const auto& v : views) {
    if (v.kind == DimKind::kScan) {
      return {CommClass::kScan, "reduce-bound subscript sweeps its set"};
    }
  }
  bool any_uniform = false;
  for (const auto& v : views) {
    if (v.kind == DimKind::kUniform) any_uniform = true;
  }
  if (any_uniform) {
    return {CommClass::kScan, "uniform subscript (spread/broadcast)"};
  }
  const CommDecision per_lane{CommClass::kScan, "class varies by lane"};
  if (!geom.default_layout) return per_lane;
  for (const auto& v : views) {
    if (v.kind == DimKind::kScaled) {
      return {CommClass::kRouter, "strided or permuted subscript"};
    }
  }

  // All dims are kIdent / kOffset on distinct lane elements.  A repeated
  // element (a[i][i]) or a transposed order (a[j][i] under par (I,J))
  // needs general communication.
  std::vector<const Symbol*> order;
  for (const auto& v : views) {
    if (std::find(order.begin(), order.end(), v.elem) != order.end()) {
      return {CommClass::kRouter, "lane index repeated across dimensions"};
    }
    order.push_back(v.elem);
  }
  std::size_t lane_pos = 0;
  for (const auto* elem : order) {
    while (lane_pos < site.lanes.size() &&
           site.lanes[lane_pos].elem != elem) {
      ++lane_pos;
    }
    if (lane_pos == site.lanes.size()) {
      return {CommClass::kRouter, "lane indices used in transposed order"};
    }
    ++lane_pos;
  }

  // The closed form: subscript j is the element on lane axis j plus c,
  // over a consecutive run from v0, so lane coordinate t reads t + v0 + c.
  if (geom.dims->size() != views.size()) return per_lane;
  std::vector<std::int64_t> delta(views.size());
  for (std::size_t j = 0; j < views.size(); ++j) {
    const LaneElem* le = j < site.lanes.size() ? &site.lanes[j] : nullptr;
    if (le == nullptr || le->elem != views[j].elem ||
        !le->set->index_set->consecutive_run()) {
      return per_lane;
    }
    delta[j] = lang::arith::Add::on(le->set->index_set->values.front(),
                                    views[j].offset);
  }
  const auto access = cm::lane_relative_access(
      delta.data(), geom.dims->data(), views.size(), geom.lane_dims.data(),
      geom.lane_dims.size(), cost);
  if (!access) return per_lane;
  if (access->cls == cm::AccessClass::kLocal) return {CommClass::kLocal, ""};
  if (access->cls == cm::AccessClass::kNews) {
    return {CommClass::kNews, "constant offset " +
                                  std::to_string(access->hops) +
                                  " on the grid"};
  }
  return {CommClass::kRouter,
          geom.lane_dims != *geom.dims
              ? "lane geometry differs from the array shape"
              : "constant offset is no single NEWS move"};
}

class CommPass : public Pass {
 public:
  const char* name() const override { return "comm"; }

  void run(PassContext& ctx) override {
    std::map<std::string, FunctionComm> by_fn;
    // Per-array classification with and without the permute placement,
    // for the mapping diagnostics.
    std::map<const Symbol*, bool> any_placed_router;
    std::map<const Symbol*, bool> all_identity_cheap;
    std::map<const Symbol*, std::size_t> access_count;
    // Arrays a copy replicates on every VP, and arrays a fold moves.
    std::set<const Symbol*> copied, folded;
    for (const auto& ref : ctx.model.mappings) {
      if (ref.mapping->kind == lang::MapKind::kCopy) copied.insert(ref.target);
      if (ref.mapping->kind == lang::MapKind::kFold) folded.insert(ref.target);
    }

    for (const auto& site : ctx.model.sites) {
      for (const auto& sa : site.accesses) {
        if (sa.access.subscript == nullptr) continue;  // scalars are local
        const Symbol* base = sa.access.base;
        if (base == nullptr || site.per_lane.count(base) != 0) continue;

        // The lanes' geometry is the site's, then a reduction's sets.
        AccessGeometry geom{{}, &base->type.dims,
                            base->kind != lang::SymbolKind::kParam &&
                                folded.count(base) == 0};
        std::uint64_t space = 1;
        const auto axis = [&](std::int64_t n) {
          geom.lane_dims.push_back(n);
          space *= static_cast<std::uint64_t>(n);
        };
        for (const auto& le : site.lanes) axis(le.size);
        const lang::ReduceExpr* reduce =
            sa.access.reduce != nullptr ? sa.access.reduce : site.reduce;
        for (const auto* set : reduce != nullptr ? reduce->index_set_syms
                                                 : std::vector<Symbol*>{}) {
          const auto n = std::ssize(set->index_set->values);
          if (n > 0) axis(n);
        }

        auto placed = subscript_views(site, sa, ctx.model,
                                      /*apply_placement=*/true);
        CommDecision c = copied.count(base) != 0
                             ? CommDecision{CommClass::kLocal, ""}
                             : classify_views(site, placed, geom, ctx.cost);

        CommAccess ca;
        ca.cls = c.cls;
        ca.is_write = sa.access.is_write;
        ca.array = base->name;
        ca.detail = c.detail;
        ca.range = sa.access.site->range;
        ca.lanes = space;

        std::string fn =
            site.function != nullptr ? site.function->name : "<global>";
        auto [it, inserted] = by_fn.try_emplace(fn);
        if (inserted) it->second.function = fn;
        it->second.accesses.push_back(std::move(ca));

        // Bookkeeping for UC-A201/A202.
        ++access_count[base];
        if (ctx.model.placements.count(base) != 0) {
          auto identity = subscript_views(site, sa, ctx.model,
                                          /*apply_placement=*/false);
          CommDecision ci = classify_views(site, identity, geom, ctx.cost);
          bool cheap = ci.cls == CommClass::kLocal ||
                       ci.cls == CommClass::kNews;
          auto [ai, ains] = all_identity_cheap.try_emplace(base, true);
          (void)ains;
          ai->second = ai->second && cheap;
          if (c.cls == CommClass::kRouter) any_placed_router[base] = true;
        }
      }
    }

    for (auto& [fn, comm] : by_fn) {
      ctx.report.functions.push_back(std::move(comm));
    }

    report_mapping_findings(ctx, any_placed_router, all_identity_cheap,
                            access_count);
  }

 private:
  void report_mapping_findings(
      PassContext& ctx,
      const std::map<const Symbol*, bool>& any_placed_router,
      const std::map<const Symbol*, bool>& all_identity_cheap,
      const std::map<const Symbol*, std::size_t>& access_count) {
    // UC-A201: a permute that turns otherwise NEWS/local traffic into
    // router traffic.  The default (identity) mapping would have served
    // every access from the grid.
    for (const auto& [target, placement] : ctx.model.placements) {
      auto routed = any_placed_router.find(target);
      auto cheap = all_identity_cheap.find(target);
      if (routed == any_placed_router.end() || !routed->second) continue;
      if (cheap == all_identity_cheap.end() || !cheap->second) continue;
      std::string msg =
          "permute mapping of '" + target->name +
          "' forces router traffic: without it every parallel access to "
          "this array is NEWS or local; consider dropping the permute or "
          "using a constant-offset mapping";
      ctx.report.add("UC-A201", support::Severity::kWarning,
                     placement.mapping->range, std::move(msg));
    }

    // UC-A202: mappings whose target has no parallel accesses at all.
    for (const auto& ref : ctx.model.mappings) {
      auto n = access_count.find(ref.target);
      if (n != access_count.end() && n->second > 0) continue;
      std::string msg =
          "mapping targets '" + ref.target->name +
          "' but no parallel access to it was found; the mapping has no "
          "effect on communication";
      ctx.report.add("UC-A202", support::Severity::kNote, ref.mapping->range,
                     std::move(msg));
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_comm_pass() {
  return std::make_unique<CommPass>();
}

}  // namespace uc::analysis
