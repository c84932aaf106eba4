#include "cm/ops.hpp"

#include <algorithm>
#include <limits>

#include "support/str.hpp"
#include "support/wrap.hpp"

// Error taxonomy (docs/ROBUSTNESS.md): shape/geometry mismatches are the
// *caller's* bug and throw ApiError; failures that depend on runtime data
// (addresses computed from field contents) throw UcRuntimeError carrying
// the VP, its coordinates and the offending value, so a failing program
// points at the lane that misbehaved.  All throws happen on the issuing
// thread, before any parallel host work touches the destination.

namespace uc::cm {

namespace {

// UC's INF constant (paper §3.2): min/max identities.
constexpr std::int64_t kIntInf = std::numeric_limits<std::int64_t>::max();
constexpr double kFloatInf = std::numeric_limits<double>::infinity();

void check_same_geometry(const Field& a, const Field& b, const char* what) {
  if (!(a.geometry() == b.geometry())) {
    throw support::ApiError(
        support::format("%s: fields '%s' (%s) and '%s' (%s) live in "
                        "different geometries",
                        what, a.name().c_str(),
                        a.geometry().to_string().c_str(), b.name().c_str(),
                        b.geometry().to_string().c_str()));
  }
}

void check_context_geometry(const Geometry& geom, const ContextStack& ctx,
                            const char* what) {
  if (!(geom == ctx.geometry())) {
    throw support::ApiError(
        support::format("%s: context geometry %s does not match field "
                        "geometry %s",
                        what, ctx.geometry().to_string().c_str(),
                        geom.to_string().c_str()));
  }
}

// Renders a VP's coordinates in its geometry, for runtime error context.
std::string vp_coords(const Geometry& geom, VpIndex vp) {
  std::string out = "(";
  const auto coords = geom.unflatten(vp);
  for (std::size_t d = 0; d < coords.size(); ++d) {
    if (d > 0) out += ",";
    out += std::to_string(coords[d]);
  }
  out += ")";
  return out;
}

}  // namespace

void elementwise(Machine& m, const ContextStack& ctx, Field& dst,
                 const std::function<Bits(VpIndex)>& fn,
                 std::uint64_t n_ops) {
  const auto& geom = dst.geometry();
  check_context_geometry(geom, ctx, "elementwise");
  m.charge_vector_op(geom.size(), n_ops);
  auto& raw = dst.raw();
  const auto& mask = ctx.current();
  m.pool().parallel_for(0, geom.size(), [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t vp = b; vp < e; ++vp) {
      if (mask[static_cast<std::size_t>(vp)] != 0) {
        raw[static_cast<std::size_t>(vp)] = fn(vp);
      }
    }
  });
}

void news_shift(Machine& m, const ContextStack& ctx, Field& dst,
                const Field& src, std::size_t axis, std::int64_t delta) {
  check_same_geometry(dst, src, "news_shift");
  const auto& geom = dst.geometry();
  if (axis >= geom.rank()) {
    throw support::ApiError(support::format(
        "news_shift: axis %zu out of range for geometry %s", axis,
        geom.to_string().c_str()));
  }
  m.charge_news(geom.size(),
                static_cast<std::uint64_t>(delta < 0 ? -delta : delta));
  const auto& mask = ctx.current();
  const auto& src_raw = src.raw();
  // Snapshot only when dst aliases src (in-place shifts are legal); the
  // common distinct-field case reads the source directly.
  std::vector<Bits> snapshot;
  const Bits* in = src_raw.data();
  if (&dst == &src) {
    snapshot.assign(src_raw.begin(), src_raw.end());
    in = snapshot.data();
  }
  auto& out = dst.raw();
  m.pool().parallel_for(0, geom.size(), [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t vp = b; vp < e; ++vp) {
      if (mask[static_cast<std::size_t>(vp)] == 0) continue;
      auto nb = geom.neighbor(vp, axis, delta);
      if (nb) out[static_cast<std::size_t>(vp)] =
          in[static_cast<std::size_t>(*nb)];
    }
  });
}

void router_get(Machine& m, const ContextStack& ctx, Field& dst,
                const Field& src,
                const std::function<std::optional<VpIndex>(VpIndex)>& addr) {
  const auto& geom = dst.geometry();
  check_context_geometry(geom, ctx, "router_get");
  const auto& mask = ctx.current();
  const auto& src_raw = src.raw();
  // Snapshot only when dst aliases src; a get from a distinct field can
  // read the source in place.
  std::vector<Bits> snapshot;
  const Bits* in = src_raw.data();
  if (&dst == &src) {
    snapshot.assign(src_raw.begin(), src_raw.end());
    in = snapshot.data();
  }
  auto& out = dst.raw();
  std::int64_t messages = 0;
  // Count messages and validate addresses serially first: addresses are
  // data-dependent, so a bad one is the *program's* runtime error and must
  // carry lane context — and must fire before any charge or parallel
  // fetch touches the destination field.
  for (std::int64_t vp = 0; vp < geom.size(); ++vp) {
    if (mask[static_cast<std::size_t>(vp)] == 0) continue;
    auto a = addr(vp);
    if (!a) continue;
    if (*a < 0 || *a >= src.size()) {
      throw support::UcRuntimeError(support::format(
          "router_get: VP %lld at %s requests out-of-range source VP %lld "
          "(field '%s' has %lld VPs)",
          static_cast<long long>(vp),
          vp_coords(geom, vp).c_str(), static_cast<long long>(*a),
          src.name().c_str(), static_cast<long long>(src.size())));
    }
    ++messages;
  }
  m.charge_router(geom.size(), static_cast<std::uint64_t>(messages));
  m.pool().parallel_for(0, geom.size(), [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t vp = b; vp < e; ++vp) {
      if (mask[static_cast<std::size_t>(vp)] == 0) continue;
      auto a = addr(vp);
      if (!a) continue;
      out[static_cast<std::size_t>(vp)] = in[static_cast<std::size_t>(*a)];
    }
  });
}

Bits reduce_identity(ReduceOp op, ElemType type) {
  const bool f = type == ElemType::kFloat;
  switch (op) {
    case ReduceOp::kAdd:
      return f ? from_float(0.0) : from_int(0);
    case ReduceOp::kMul:
      return f ? from_float(1.0) : from_int(1);
    case ReduceOp::kMax:
      return f ? from_float(-kFloatInf) : from_int(-kIntInf);
    case ReduceOp::kMin:
      return f ? from_float(kFloatInf) : from_int(kIntInf);
    case ReduceOp::kAnd:
      return from_int(1);
    case ReduceOp::kOr:
      return from_int(0);
    case ReduceOp::kXor:
      return from_int(0);
  }
  return 0;
}

Bits apply_reduce_op(ReduceOp op, ElemType type, Bits a, Bits b) {
  if (type == ElemType::kFloat) {
    const double x = as_float(a);
    const double y = as_float(b);
    switch (op) {
      case ReduceOp::kAdd:
        return from_float(x + y);
      case ReduceOp::kMul:
        return from_float(x * y);
      case ReduceOp::kMax:
        return from_float(std::max(x, y));
      case ReduceOp::kMin:
        return from_float(std::min(x, y));
      case ReduceOp::kAnd:
        return from_int((x != 0.0 && y != 0.0) ? 1 : 0);
      case ReduceOp::kOr:
        return from_int((x != 0.0 || y != 0.0) ? 1 : 0);
      case ReduceOp::kXor:
        return from_int(((x != 0.0) != (y != 0.0)) ? 1 : 0);
    }
  } else {
    const std::int64_t x = as_int(a);
    const std::int64_t y = as_int(b);
    // Integer add/mul wrap in two's complement, never signed-overflow UB.
    switch (op) {
      case ReduceOp::kAdd:
        return from_int(support::wrap_add(x, y));
      case ReduceOp::kMul:
        return from_int(support::wrap_mul(x, y));
      case ReduceOp::kMax:
        return from_int(std::max(x, y));
      case ReduceOp::kMin:
        return from_int(std::min(x, y));
      case ReduceOp::kAnd:
        return from_int((x != 0 && y != 0) ? 1 : 0);
      case ReduceOp::kOr:
        return from_int((x != 0 || y != 0) ? 1 : 0);
      case ReduceOp::kXor:
        return from_int(x ^ y);
    }
  }
  return 0;
}

Bits reduce(Machine& m, const ContextStack& ctx, const Field& src,
            ReduceOp op) {
  const auto& geom = src.geometry();
  check_context_geometry(geom, ctx, "reduce");
  const auto& mask = ctx.current();
  const auto n_active = ctx.active_count();
  m.charge_reduce(geom.size(), n_active);
  const auto& raw = src.raw();
  Bits acc = reduce_identity(op, src.type());
  for (std::int64_t vp = 0; vp < geom.size(); ++vp) {
    if (mask[static_cast<std::size_t>(vp)] != 0) {
      acc = apply_reduce_op(op, src.type(), acc,
                            raw[static_cast<std::size_t>(vp)]);
    }
  }
  return acc;
}

void scan(Machine& m, const ContextStack& ctx, Field& dst, const Field& src,
          ReduceOp op) {
  check_same_geometry(dst, src, "scan");
  const auto& geom = src.geometry();
  const auto& mask = ctx.current();
  m.charge_reduce(geom.size(), ctx.active_count());
  const auto& in = src.raw();
  auto& out = dst.raw();
  Bits acc = reduce_identity(op, src.type());
  for (std::int64_t vp = 0; vp < geom.size(); ++vp) {
    if (mask[static_cast<std::size_t>(vp)] == 0) continue;
    acc = apply_reduce_op(op, src.type(), acc, in[static_cast<std::size_t>(vp)]);
    out[static_cast<std::size_t>(vp)] = acc;
  }
}

bool global_or(Machine& m, const ContextStack& ctx) {
  m.charge_global_or();
  return ctx.any_active();
}

void broadcast(Machine& m, const ContextStack& ctx, Field& dst, Bits value) {
  const auto& geom = dst.geometry();
  m.charge_broadcast(geom.size());
  const auto& mask = ctx.current();
  auto& out = dst.raw();
  for (std::int64_t vp = 0; vp < geom.size(); ++vp) {
    if (mask[static_cast<std::size_t>(vp)] != 0) {
      out[static_cast<std::size_t>(vp)] = value;
    }
  }
}

}  // namespace uc::cm
