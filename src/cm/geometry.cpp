#include "cm/geometry.hpp"

#include <sstream>

namespace uc::cm {

Geometry::Geometry(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
  if (dims_.empty()) {
    throw support::ApiError("Geometry requires at least one dimension");
  }
  for (auto d : dims_) {
    if (d <= 0) throw support::ApiError("Geometry dimensions must be > 0");
  }
  strides_.assign(dims_.size(), 1);
  for (std::size_t i = dims_.size(); i-- > 0;) {
    if (i + 1 < dims_.size()) strides_[i] = strides_[i + 1] * dims_[i + 1];
  }
  size_ = strides_[0] * dims_[0];
}

VpIndex Geometry::flatten(const std::vector<std::int64_t>& coords) const {
  if (coords.size() != dims_.size()) {
    throw support::ApiError("Geometry::flatten: wrong coordinate rank");
  }
  VpIndex flat = 0;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (coords[i] < 0 || coords[i] >= dims_[i]) {
      throw support::ApiError("Geometry::flatten: coordinate out of range");
    }
    flat += coords[i] * strides_[i];
  }
  return flat;
}

std::vector<std::int64_t> Geometry::unflatten(VpIndex vp) const {
  if (vp < 0 || vp >= size_) {
    throw support::ApiError("Geometry::unflatten: VP index out of range");
  }
  std::vector<std::int64_t> coords(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    coords[i] = vp / strides_[i];
    vp %= strides_[i];
  }
  return coords;
}

bool Geometry::contains(const std::vector<std::int64_t>& coords) const {
  if (coords.size() != dims_.size()) return false;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (coords[i] < 0 || coords[i] >= dims_[i]) return false;
  }
  return true;
}

std::optional<VpIndex> Geometry::neighbor(VpIndex vp, std::size_t axis,
                                          std::int64_t delta) const {
  if (axis >= dims_.size()) {
    throw support::ApiError("Geometry::neighbor: bad axis");
  }
  auto coords = unflatten(vp);
  coords[axis] += delta;
  if (coords[axis] < 0 || coords[axis] >= dims_[axis]) return std::nullopt;
  return flatten(coords);
}

std::string Geometry::to_string() const {
  std::ostringstream os;
  os << "Geometry(";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i != 0) os << "x";
    os << dims_[i];
  }
  os << ")";
  return os.str();
}

}  // namespace uc::cm
