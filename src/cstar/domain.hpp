// An embedded C*-flavoured data-parallel DSL over the CM simulator — the
// baseline the paper compares UC against (§5, Appendix).
//
// C* organises computation around `domain` types: a record instantiated
// once per virtual processor, with parallel member functions executed by
// every (active) instance in lockstep.  We mirror that:
//
//   cstar::Domain path(machine, "PATH", {N, N});
//   auto len = path.add_field("len");
//   path.parallel(3 /*op weight*/, [&](cstar::Elem& e) {
//     auto v = e.get(len, {e.at(0), k}) + e.get(len, {k, e.at(1)});
//     e.min_assign(len, v);                       // the C* <?= operator
//   });
//
// Every `parallel` call is one C* parallel statement: it charges one
// vector instruction over the domain's VP set, classifies each remote
// `get` as local / NEWS / router exactly like the UC VM does, and commits
// writes synchronously (reads see pre-statement state).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cm/context.hpp"
#include "cm/machine.hpp"
#include "cm/ops.hpp"

namespace uc::cstar {

class Domain;

struct FieldHandle {
  std::int32_t index = -1;
};

// Per-instance view handed to parallel member functions.
class Elem {
 public:
  cm::VpIndex vp() const { return vp_; }
  // Coordinate of this instance along axis k.
  std::int64_t at(std::size_t axis) const;

  // Reads a field of this instance (local memory).
  std::int64_t self(FieldHandle f) const;
  // Reads a field of the instance at `coords` (classified & charged).
  std::int64_t get(FieldHandle f, const std::vector<std::int64_t>& coords) const;

  // Writes to this instance's field (committed after the sweep).
  void set(FieldHandle f, std::int64_t v);
  // C* `<?=` / `>?=`: min/max-combine into this instance's field.
  void min_assign(FieldHandle f, std::int64_t v);
  void max_assign(FieldHandle f, std::int64_t v);
  // C* `+=` onto a *remote* instance (send with combine over the router).
  void send_add(FieldHandle f, const std::vector<std::int64_t>& coords,
                std::int64_t v);
  void send_min(FieldHandle f, const std::vector<std::int64_t>& coords,
                std::int64_t v);

  // Cross-domain access (the Fig 10 pattern: XMED instances read PATH and
  // min-combine back into it).  Reads see the other domain's state as of
  // the sweep start for fields the target domain snapshotted; sends commit
  // when this sweep ends.  Always router traffic.
  std::int64_t get_from(Domain& other, FieldHandle f,
                        const std::vector<std::int64_t>& coords) const;
  void send_min_to(Domain& other, FieldHandle f,
                   const std::vector<std::int64_t>& coords, std::int64_t v);
  void send_add_to(Domain& other, FieldHandle f,
                   const std::vector<std::int64_t>& coords, std::int64_t v);

 private:
  friend class Domain;
  Domain* domain_ = nullptr;
  cm::VpIndex vp_ = 0;
  // Per-sweep buffers (owned by Domain::parallel).
  struct Pending {
    Domain* domain;  // target domain (usually the sweeping one)
    std::int32_t field;
    cm::VpIndex vp;
    std::int64_t value;
    enum class Kind : std::uint8_t { kSet, kMin, kMax, kAdd } kind;
  };
  std::vector<Pending>* pending_ = nullptr;
  cm::AccessStats* access_ = nullptr;
};

class Domain {
 public:
  Domain(cm::Machine& machine, std::string name,
         std::vector<std::int64_t> shape);

  FieldHandle add_field(const std::string& name);

  std::int64_t size() const;
  const cm::Geometry& geometry() const;
  cm::Machine& machine() { return machine_; }

  // Executes `fn` for every instance active in the current context, as one
  // C* parallel statement of the given ALU weight.  Reads see the state
  // before the statement; writes/combines commit afterwards.
  void parallel(std::uint64_t op_weight, const std::function<void(Elem&)>& fn);

  // `where (pred) { ... }`: narrows the context for the duration of fn.
  void where(const std::function<bool(Elem&)>& pred,
             const std::function<void()>& body);

  // Front-end access (charged as front-end ops).
  std::int64_t read(FieldHandle f, const std::vector<std::int64_t>& coords);
  void write(FieldHandle f, const std::vector<std::int64_t>& coords,
             std::int64_t v);

  // Reduction of a field over active instances.
  std::int64_t reduce(FieldHandle f, cm::ReduceOp op);

 private:
  friend class Elem;
  cm::Field& field(FieldHandle f);
  const cm::Field& field(FieldHandle f) const;

  cm::Machine& machine_;
  std::string name_;
  cm::GeomId geom_;
  std::vector<cm::FieldId> fields_;
  cm::ContextStack context_;
  // Snapshot of all fields during a sweep (synchronous reads).
  std::vector<std::vector<cm::Bits>> snapshot_;
  bool in_sweep_ = false;
};

}  // namespace uc::cstar
