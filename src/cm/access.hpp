// Access classification (docs/COSTMODEL.md "Access classification"): the
// one rule that makes an array access from a lane local, NEWS or router,
// and the counters a statement's accesses add up to.  The engines, the C*
// reference (src/cstar) and `ucc analyze` all decide here;
// Machine::charge_access turns the counts into instructions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "cm/cost.hpp"
#include "cm/geometry.hpp"

namespace uc::cm {

enum class AccessClass : std::uint8_t { kLocal, kNews, kRouter };

struct Access {
  AccessClass cls = AccessClass::kLocal;
  std::uint64_t hops = 0;  // kNews: grid steps along the one moved axis
};

// The rule.  The element's owner differs from the lane on `moved` axes of
// their common geometry, the last of them `hops` steps apart: no axis is
// local, one is NEWS while hops NEWS steps cost no more than one router
// delivery, and anything else routes.
inline Access access_class(int moved, std::uint64_t hops,
                           const CostModel& cost) {
  if (moved == 0) return {AccessClass::kLocal, 0};
  if (moved == 1 && hops * cost.news_op <= cost.router_op) {
    return {AccessClass::kNews, hops};
  }
  return {AccessClass::kRouter, 0};
}

// The rule over owner and lane coordinates in one geometry of rank n.
inline Access access_class(const std::int64_t* owner,
                           const std::int64_t* lane, std::size_t n,
                           const CostModel& cost) {
  int moved = 0;
  std::uint64_t hops = 0;
  for (std::size_t d = 0; d < n; ++d) {
    if (owner[d] != lane[d]) {
      ++moved;
      hops = static_cast<std::uint64_t>(owner[d] < lane[d] ? lane[d] - owner[d]
                                                           : owner[d] - lane[d]);
    }
  }
  return access_class(moved, hops, cost);
}

// Per lane, over an owner table: the element lives on VP `owner`, the lane
// is VP `vp` at coordinates `lane`.  `coord_table` (n coordinates per VP)
// is given when the lane geometry is the owner's, and is null otherwise:
// every access that is not local then routes.
inline Access owner_access(VpIndex owner, VpIndex vp,
                           const std::int64_t* coord_table,
                           const std::int64_t* lane, std::size_t n,
                           const CostModel& cost) {
  if (owner == vp) return {AccessClass::kLocal, 0};
  if (coord_table == nullptr) return {AccessClass::kRouter, 0};
  return access_class(coord_table + static_cast<std::size_t>(owner) * n, lane,
                      n, cost);
}

// The lane-relative closed form (docs/VM.md "Lane-relative sites"): every
// lane at coordinates t reads element t + delta of an array of shape
// `dims` (rank n) in the default layout, element e on VP e, from a lane
// geometry `lane_dims` (lane_n axes; a lane's VP is its coordinates
// flattened).  Returns the class all lanes in range share, or nothing:
// - A distance of an axis's extent or more leaves no lane in range.
// - On the array's own shape, the owner is delta away: the rule applies.
// - Otherwise nothing moves over NEWS, and an access is local exactly when
//   its flat element is the lane's VP.  That difference is one constant
//   when the geometries have equal rank and agree on all but the first
//   extent, so their strides agree.
inline std::optional<Access> lane_relative_access(
    const std::int64_t* delta, const std::int64_t* dims, std::size_t n,
    const std::int64_t* lane_dims, std::size_t lane_n,
    const CostModel& cost) {
  int moved = 0;
  std::uint64_t hops = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t dist =
        delta[j] < 0 ? 0 - static_cast<std::uint64_t>(delta[j])
                     : static_cast<std::uint64_t>(delta[j]);
    if (dist >= static_cast<std::uint64_t>(dims[j])) return std::nullopt;
    if (dist != 0) {
      ++moved;
      hops = dist;
    }
  }
  if (lane_n != n || !std::equal(dims + 1, dims + n, lane_dims + 1)) {
    return std::nullopt;
  }
  if (dims[0] == lane_dims[0]) return access_class(moved, hops, cost);
  std::int64_t apart = 0;  // flat element minus the lane's VP
  std::int64_t stride = 1;
  for (std::size_t j = n; j-- > 0;) {
    apart += delta[j] * stride;
    stride *= dims[j];
  }
  return Access{apart == 0 ? AccessClass::kLocal : AccessClass::kRouter, 0};
}

// One statement's communication, summed across lanes.  Every field merges
// commutatively, so any host execution order yields the same charges.  The
// native tier mirrors the layout (ucvm/native/abi.hpp).
struct AccessStats {
  std::uint64_t local = 0;
  std::uint64_t news = 0;
  std::uint64_t news_max_hops = 0;
  std::uint64_t router = 0;
  std::uint64_t frontend = 0;
  std::uint64_t broadcast = 0;

  // Counts `lanes` accesses of class a.
  void count(Access a, std::uint64_t lanes = 1) {
    if (a.cls == AccessClass::kLocal) local += lanes;
    if (a.cls == AccessClass::kRouter) router += lanes;
    if (a.cls == AccessClass::kNews) {
      news += lanes;
      news_max_hops = std::max(news_max_hops, a.hops);
    }
  }

  void merge(const AccessStats& o) {
    local += o.local;
    news += o.news;
    news_max_hops = std::max(news_max_hops, o.news_max_hops);
    router += o.router;
    frontend += o.frontend;
    broadcast += o.broadcast;
  }
};

}  // namespace uc::cm
