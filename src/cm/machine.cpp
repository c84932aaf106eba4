#include "cm/machine.hpp"

#include <bit>

#include "support/str.hpp"

namespace uc::cm {

Machine::Machine(MachineOptions options)
    : options_(options),
      pool_(std::make_unique<ThreadPool>(options.host_threads)),
      rng_(options.seed),
      injector_(options.faults) {}

GeomId Machine::create_geometry(std::vector<std::int64_t> dims) {
  geometries_.push_back(std::make_unique<Geometry>(std::move(dims)));
  return GeomId{static_cast<std::int32_t>(geometries_.size() - 1)};
}

const Geometry& Machine::geometry(GeomId id) const {
  if (id.index < 0 || static_cast<std::size_t>(id.index) >= geometries_.size()) {
    throw support::ApiError("Machine::geometry: bad id");
  }
  return *geometries_[static_cast<std::size_t>(id.index)];
}

FieldId Machine::allocate_field(GeomId geom, std::string name, ElemType type) {
  const Geometry* g = &geometry(geom);
  // Memory cap: one payload word + one defined flag per VP.  Exceeding it
  // is a clean runtime error (the program asked for too much machine),
  // not an ApiError — the caller's code is fine, the request is not.
  const auto bytes =
      static_cast<std::uint64_t>(g->size()) * (sizeof(Bits) + 1);
  if (options_.max_field_bytes != 0 &&
      field_bytes_ + bytes > options_.max_field_bytes) {
    throw support::UcRuntimeError(support::format(
        "field '%s' (%lld VPs, %llu bytes) exceeds the field memory cap: "
        "%llu of %llu bytes already allocated (raise --max-field-mb)",
        name.c_str(), static_cast<long long>(g->size()),
        static_cast<unsigned long long>(bytes),
        static_cast<unsigned long long>(field_bytes_),
        static_cast<unsigned long long>(options_.max_field_bytes)));
  }
  field_bytes_ += bytes;
  auto field = std::make_unique<Field>(g, std::move(name), type);
  if (!free_field_slots_.empty()) {
    auto slot = free_field_slots_.back();
    free_field_slots_.pop_back();
    fields_[static_cast<std::size_t>(slot)] = std::move(field);
    return FieldId{slot};
  }
  fields_.push_back(std::move(field));
  return FieldId{static_cast<std::int32_t>(fields_.size() - 1)};
}

Field& Machine::field(FieldId id) {
  if (id.index < 0 || static_cast<std::size_t>(id.index) >= fields_.size() ||
      fields_[static_cast<std::size_t>(id.index)] == nullptr) {
    throw support::ApiError("Machine::field: bad id");
  }
  return *fields_[static_cast<std::size_t>(id.index)];
}

const Field& Machine::field(FieldId id) const {
  return const_cast<Machine*>(this)->field(id);
}

void Machine::free_field(FieldId id) {
  const Field& f = field(id);  // validate
  const auto bytes =
      static_cast<std::uint64_t>(f.size()) * (sizeof(Bits) + 1);
  field_bytes_ = field_bytes_ >= bytes ? field_bytes_ - bytes : 0;
  fields_[static_cast<std::size_t>(id.index)].reset();
  free_field_slots_.push_back(id.index);
}

void Machine::faultable(FaultKind k, std::uint64_t units,
                        std::uint64_t attempt_cycles) {
  if (!injector_.enabled(k)) return;
  // Detection (checksum/ack verification) is charged per protected
  // instruction whenever injection is on — turning the layer on costs
  // cycles even on a lucky run, turning it off costs nothing.
  stats_.cycles += options_.faults.detect_cycles;
  std::uint64_t failures = 0;
  while (injector_.draw_failure(k, units)) {
    ++failures;
    stats_.faults += 1;
    stats_.cycles += injector_.backoff(failures);
    if (failures > options_.faults.max_retries) {
      trace("cm:fault         kind=%s attempts=%llu "
            "units=%llu UNRECOVERED",
            fault_kind_name(k),
            static_cast<unsigned long long>(failures),
            static_cast<unsigned long long>(units));
      throw support::TransientFault(
          fault_kind_name(k), failures,
          support::format(
              "transient %s fault: %llu consecutive attempts failed "
              "(p=%g over %llu units, retries=%llu)",
              fault_kind_name(k),
              static_cast<unsigned long long>(failures),
              injector_.spec().probability(k),
              static_cast<unsigned long long>(units),
              static_cast<unsigned long long>(
                  options_.faults.max_retries)));
    }
    // Re-issue: the instruction runs again in full, plus its checksum.
    stats_.retries += 1;
    stats_.cycles += attempt_cycles + options_.faults.detect_cycles;
    trace("cm:retry         kind=%s attempt=%llu units=%llu",
          fault_kind_name(k),
          static_cast<unsigned long long>(failures + 1),
          static_cast<unsigned long long>(units));
  }
}

void Machine::charge_checkpoint(std::int64_t words) {
  trace("cm:checkpoint    words=%lld", static_cast<long long>(words));
  stats_.checkpoints += 1;
  const auto slices =
      options_.cost.vp_ratio(static_cast<std::uint64_t>(words));
  stats_.cycles += options_.cost.issue_overhead +
                   options_.cost.mem_op * slices;
}

void Machine::charge_frontend(std::uint64_t n_ops) {
  trace("fe-op            count=%llu", static_cast<unsigned long long>(n_ops));
  stats_.frontend_ops += n_ops;
  stats_.cycles += options_.cost.frontend_op * n_ops;
}

void Machine::charge_vector_op(std::int64_t vp_set_size, std::uint64_t n_ops,
                               bool planned) {
  trace("cm:alu           vp-set=%lld ops=%llu%s",
        static_cast<long long>(vp_set_size),
        static_cast<unsigned long long>(n_ops),
        planned ? " plan$" : "");
  const auto vpr = options_.cost.vp_ratio(static_cast<std::uint64_t>(vp_set_size));
  stats_.vector_ops += 1;
  const auto issue = planned ? options_.cost.plan_issue_overhead
                             : options_.cost.issue_overhead;
  const auto attempt = issue + options_.cost.alu_op * n_ops * vpr;
  stats_.cycles += attempt;
  // Memory faults: any of the VP words touched may take a bit flip.
  faultable(FaultKind::kMemory, static_cast<std::uint64_t>(vp_set_size),
            attempt);
}

void Machine::charge_news(std::int64_t vp_set_size, std::uint64_t hops) {
  trace("cm:get-news      vp-set=%lld hops=%llu",
        static_cast<long long>(vp_set_size),
        static_cast<unsigned long long>(hops));
  const auto vpr = options_.cost.vp_ratio(static_cast<std::uint64_t>(vp_set_size));
  stats_.news_ops += 1;
  const auto attempt = options_.cost.news_op * (hops == 0 ? 1 : hops) * vpr;
  stats_.cycles += attempt;
  // NEWS faults: every hop of every time slice crosses a grid link.
  faultable(FaultKind::kNews, (hops == 0 ? 1 : hops) * vpr, attempt);
}

void Machine::charge_router(std::int64_t vp_set_size,
                            std::uint64_t n_messages) {
  trace("cm:send-general  vp-set=%lld msgs=%llu",
        static_cast<long long>(vp_set_size),
        static_cast<unsigned long long>(n_messages));
  (void)vp_set_size;
  stats_.router_ops += 1;
  stats_.router_messages += n_messages;
  // Messages are delivered in waves of at most P; an instruction that
  // injects more than P messages takes proportionally longer.
  const auto waves =
      (n_messages + options_.cost.physical_processors - 1) /
      options_.cost.physical_processors;
  const auto attempt = options_.cost.router_op * (waves == 0 ? 1 : waves);
  stats_.cycles += attempt;
  // Router faults: each message is independently at risk of drop or
  // corruption; the ack/checksum pass detects a bad wave and re-sends.
  faultable(FaultKind::kRouter, n_messages, attempt);
}

void Machine::charge_reduce(std::int64_t vp_set_size, std::int64_t n_elems,
                            bool planned) {
  trace("cm:scan          vp-set=%lld elems=%lld%s",
        static_cast<long long>(vp_set_size),
        static_cast<long long>(n_elems),
        planned ? " plan$" : "");
  const auto vpr = options_.cost.vp_ratio(static_cast<std::uint64_t>(vp_set_size));
  stats_.reductions += 1;
  std::uint64_t depth = 1;
  if (n_elems > 1) {
    depth = static_cast<std::uint64_t>(
        std::bit_width(static_cast<std::uint64_t>(n_elems - 1)));
  }
  const auto issue = planned ? options_.cost.plan_issue_overhead
                             : options_.cost.issue_overhead;
  const auto attempt = issue + options_.cost.scan_step * depth * vpr;
  stats_.cycles += attempt;
  // Scan/reduce faults: any log-depth combine step of any slice can fail.
  faultable(FaultKind::kReduce, depth * vpr, attempt);
}

void Machine::charge_global_or() {
  trace("cm:global-logior");
  stats_.global_ors += 1;
  stats_.cycles += options_.cost.global_or_op;
}

void Machine::charge_broadcast(std::int64_t vp_set_size) {
  trace("cm:broadcast     vp-set=%lld", static_cast<long long>(vp_set_size));
  const auto vpr = options_.cost.vp_ratio(static_cast<std::uint64_t>(vp_set_size));
  stats_.broadcasts += 1;
  stats_.cycles += options_.cost.broadcast_op * vpr;
}

void Machine::charge_access(std::int64_t vp_set_size,
                            const AccessStats& stats) {
  if (stats.news > 0) charge_news(vp_set_size, stats.news_max_hops);
  if (stats.router > 0) charge_router(vp_set_size, stats.router);
  if (stats.broadcast > 0) charge_broadcast(vp_set_size);
  if (stats.frontend > 0) charge_frontend(stats.frontend);
}

void Machine::trace(const char* fmt, ...) {
  if (!options_.record_paris_trace) return;
  va_list args;
  va_start(args, fmt);
  trace_.push_back(support::vformat(fmt, args));
  va_end(args);
}

}  // namespace uc::cm
