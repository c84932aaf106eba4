#include "cstar/domain.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace uc::cstar {

// ---------------------------------------------------------------------------
// Elem
// ---------------------------------------------------------------------------

std::int64_t Elem::at(std::size_t axis) const {
  return domain_->geometry().unflatten(vp_)[axis];
}

std::int64_t Elem::self(FieldHandle f) const {
  ++access_->local;
  return cm::as_int(domain_->snapshot_[static_cast<std::size_t>(f.index)]
                                      [static_cast<std::size_t>(vp_)]);
}

std::int64_t Elem::get(FieldHandle f,
                       const std::vector<std::int64_t>& coords) const {
  const auto& geom = domain_->geometry();
  if (!geom.contains(coords)) {
    throw support::ApiError("cstar::Elem::get: coordinates out of range");
  }
  // The VM's rule, with the owner and the instance in one geometry.
  const auto owner = geom.flatten(coords);
  access_->count(cm::access_class(coords.data(), geom.unflatten(vp_).data(),
                                  coords.size(),
                                  domain_->machine_.cost_model()));
  return cm::as_int(domain_->snapshot_[static_cast<std::size_t>(f.index)]
                                      [static_cast<std::size_t>(owner)]);
}

void Elem::set(FieldHandle f, std::int64_t v) {
  pending_->push_back(Pending{domain_, f.index, vp_, v, Pending::Kind::kSet});
}

void Elem::min_assign(FieldHandle f, std::int64_t v) {
  pending_->push_back(Pending{domain_, f.index, vp_, v, Pending::Kind::kMin});
}

void Elem::max_assign(FieldHandle f, std::int64_t v) {
  pending_->push_back(Pending{domain_, f.index, vp_, v, Pending::Kind::kMax});
}

void Elem::send_add(FieldHandle f, const std::vector<std::int64_t>& coords,
                    std::int64_t v) {
  const auto owner = domain_->geometry().flatten(coords);
  if (owner != vp_) ++access_->router;
  pending_->push_back(Pending{domain_, f.index, owner, v,
                              Pending::Kind::kAdd});
}

void Elem::send_min(FieldHandle f, const std::vector<std::int64_t>& coords,
                    std::int64_t v) {
  const auto owner = domain_->geometry().flatten(coords);
  if (owner != vp_) ++access_->router;
  pending_->push_back(Pending{domain_, f.index, owner, v,
                              Pending::Kind::kMin});
}

std::int64_t Elem::get_from(Domain& other, FieldHandle f,
                            const std::vector<std::int64_t>& coords) const {
  const auto owner = other.geometry().flatten(coords);
  ++access_->router;  // cross-domain traffic always routes
  return cm::as_int(other.field(f).get(owner));
}

void Elem::send_min_to(Domain& other, FieldHandle f,
                       const std::vector<std::int64_t>& coords,
                       std::int64_t v) {
  const auto owner = other.geometry().flatten(coords);
  ++access_->router;
  pending_->push_back(Pending{&other, f.index, owner, v,
                              Pending::Kind::kMin});
}

void Elem::send_add_to(Domain& other, FieldHandle f,
                       const std::vector<std::int64_t>& coords,
                       std::int64_t v) {
  const auto owner = other.geometry().flatten(coords);
  ++access_->router;
  pending_->push_back(Pending{&other, f.index, owner, v,
                              Pending::Kind::kAdd});
}

// ---------------------------------------------------------------------------
// Domain
// ---------------------------------------------------------------------------

Domain::Domain(cm::Machine& machine, std::string name,
               std::vector<std::int64_t> shape)
    : machine_(machine),
      name_(std::move(name)),
      geom_(machine.create_geometry(std::move(shape))),
      context_(&machine.geometry(geom_)) {}

FieldHandle Domain::add_field(const std::string& field_name) {
  fields_.push_back(machine_.allocate_field(geom_, name_ + "." + field_name,
                                            cm::ElemType::kInt));
  return FieldHandle{static_cast<std::int32_t>(fields_.size() - 1)};
}

std::int64_t Domain::size() const { return machine_.geometry(geom_).size(); }

const cm::Geometry& Domain::geometry() const {
  return machine_.geometry(geom_);
}

cm::Field& Domain::field(FieldHandle f) {
  if (f.index < 0 || static_cast<std::size_t>(f.index) >= fields_.size()) {
    throw support::ApiError("cstar::Domain: bad field handle");
  }
  return machine_.field(fields_[static_cast<std::size_t>(f.index)]);
}

const cm::Field& Domain::field(FieldHandle f) const {
  return const_cast<Domain*>(this)->field(f);
}

void Domain::parallel(std::uint64_t op_weight,
                      const std::function<void(Elem&)>& fn) {
  if (in_sweep_) {
    throw support::ApiError("cstar::Domain::parallel: nested sweeps are not "
                            "allowed (C* statements are flat)");
  }
  in_sweep_ = true;
  // Snapshot all fields: parallel statements read pre-statement state.
  snapshot_.clear();
  snapshot_.reserve(fields_.size());
  for (auto id : fields_) snapshot_.push_back(machine_.field(id).raw());

  const auto n = size();
  machine_.charge_vector_op(n, op_weight);

  std::vector<std::vector<Elem::Pending>> pending(
      static_cast<std::size_t>(n));
  std::vector<cm::AccessStats> access(static_cast<std::size_t>(n));
  const auto& mask = context_.current();
  machine_.pool().parallel_for(
      0, n,
      [&](std::int64_t b, std::int64_t e) {
        for (cm::VpIndex vp = b; vp < e; ++vp) {
          if (mask[static_cast<std::size_t>(vp)] == 0) continue;
          Elem elem;
          elem.domain_ = this;
          elem.vp_ = vp;
          elem.pending_ = &pending[static_cast<std::size_t>(vp)];
          elem.access_ = &access[static_cast<std::size_t>(vp)];
          fn(elem);
        }
      },
      /*min_grain=*/256);

  cm::AccessStats total;
  for (const auto& a : access) total.merge(a);
  machine_.charge_access(n, total);

  // Commit: plain sets must be single-valued; combines fold in VP order.
  for (auto& per_vp : pending) {
    for (auto& p : per_vp) {
      auto& fld = machine_.field(
          p.domain->fields_[static_cast<std::size_t>(p.field)]);
      switch (p.kind) {
        case Elem::Pending::Kind::kSet:
          fld.set(p.vp, cm::from_int(p.value));
          break;
        case Elem::Pending::Kind::kMin:
          fld.set(p.vp, cm::from_int(std::min(cm::as_int(fld.get(p.vp)),
                                              p.value)));
          break;
        case Elem::Pending::Kind::kMax:
          fld.set(p.vp, cm::from_int(std::max(cm::as_int(fld.get(p.vp)),
                                              p.value)));
          break;
        case Elem::Pending::Kind::kAdd:
          fld.set(p.vp,
                  cm::from_int(cm::as_int(fld.get(p.vp)) + p.value));
          break;
      }
    }
  }
  in_sweep_ = false;
}

void Domain::where(const std::function<bool(Elem&)>& pred,
                   const std::function<void()>& body) {
  // Evaluating the condition is itself one parallel statement.
  machine_.charge_vector_op(size(), 1);
  snapshot_.clear();
  snapshot_.reserve(fields_.size());
  for (auto id : fields_) snapshot_.push_back(machine_.field(id).raw());
  std::vector<Elem::Pending> scratch;
  cm::AccessStats access;
  context_.where([&](cm::VpIndex vp) {
    Elem elem;
    elem.domain_ = this;
    elem.vp_ = vp;
    elem.pending_ = &scratch;
    elem.access_ = &access;
    return pred(elem);
  });
  body();
  context_.end();
}

std::int64_t Domain::read(FieldHandle f,
                          const std::vector<std::int64_t>& coords) {
  machine_.charge_frontend(2);
  return cm::as_int(field(f).get(geometry().flatten(coords)));
}

void Domain::write(FieldHandle f, const std::vector<std::int64_t>& coords,
                   std::int64_t v) {
  machine_.charge_frontend(2);
  field(f).set(geometry().flatten(coords), cm::from_int(v));
}

std::int64_t Domain::reduce(FieldHandle f, cm::ReduceOp op) {
  return cm::as_int(cm::reduce(machine_, context_, field(f), op));
}

}  // namespace uc::cstar
