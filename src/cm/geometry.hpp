// VP-set geometries: the shape of a set of virtual processors.  A geometry
// is a dense N-dimensional grid (N in 1..3 covers everything UC needs);
// VPs are identified by their row-major flat index.  NEWS neighbours are
// adjacent along one axis; everything else goes through the router.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace uc::cm {

using VpIndex = std::int64_t;  // flat VP id within a geometry

class Geometry {
 public:
  explicit Geometry(std::vector<std::int64_t> dims);

  std::size_t rank() const { return dims_.size(); }
  const std::vector<std::int64_t>& dims() const { return dims_; }
  std::int64_t dim(std::size_t axis) const { return dims_.at(axis); }
  std::int64_t size() const { return size_; }

  // Row-major flattening; throws ApiError if out of range.
  VpIndex flatten(const std::vector<std::int64_t>& coords) const;
  std::vector<std::int64_t> unflatten(VpIndex vp) const;

  bool contains(const std::vector<std::int64_t>& coords) const;

  // The VP one step along `axis` (delta = +/-1 .. +/-k).  nullopt if the
  // step leaves the grid.  Steps of magnitude 1 are NEWS-neighbour cheap;
  // larger magnitudes still route over the grid but cost |delta| hops.
  std::optional<VpIndex> neighbor(VpIndex vp, std::size_t axis,
                                  std::int64_t delta) const;

  std::string to_string() const;

  friend bool operator==(const Geometry& a, const Geometry& b) {
    return a.dims_ == b.dims_;
  }

 private:
  std::vector<std::int64_t> dims_;
  std::vector<std::int64_t> strides_;  // row-major
  std::int64_t size_ = 1;
};

}  // namespace uc::cm
