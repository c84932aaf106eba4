// The simulated Connection Machine.  Owns geometries (VP sets), fields
// (per-VP memory), the host thread pool that stands in for the physical
// processor array, the deterministic RNG, and all cost accounting.
//
// Cost charging contract: charge_* methods are called once per issued
// instruction, from the issuing thread only (instruction issue is serial on
// the real front end too).  Elementwise host work *within* an instruction
// may run on the pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cm/access.hpp"
#include "cm/cost.hpp"
#include "cm/fault.hpp"
#include "cm/field.hpp"
#include "cm/geometry.hpp"
#include "cm/thread_pool.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uc::cm {

struct GeomId {
  std::int32_t index = -1;
  friend bool operator==(GeomId, GeomId) = default;
};
struct FieldId {
  std::int32_t index = -1;
  friend bool operator==(FieldId, FieldId) = default;
};

struct MachineOptions {
  CostModel cost;
  unsigned host_threads = 1;   // threads in the data-parallel host runtime
  std::uint64_t seed = 1;      // RNG seed (rand() in UC programs, oneof picks)
  // Record a Paris-style instruction trace (the CM-2 assembly interface the
  // paper's compiler was being retargeted to, §5).  One line per issued
  // machine instruction; costs memory, off by default.
  bool record_paris_trace = false;
  // Fault injection (docs/ROBUSTNESS.md).  Default-constructed = disabled:
  // the charge_* fast paths are then byte-for-byte the pre-fault-layer
  // code, so cycles and outputs are unchanged.
  FaultSpec faults;
  // Field-allocation memory cap in bytes (payload + defined flag); 0 =
  // unlimited.  Exceeding it throws UcRuntimeError instead of OOM-killing
  // the host.
  std::uint64_t max_field_bytes = 0;
};

class Machine {
 public:
  explicit Machine(MachineOptions options = {});

  const CostModel& cost_model() const { return options_.cost; }
  const MachineOptions& options() const { return options_; }

  GeomId create_geometry(std::vector<std::int64_t> dims);
  const Geometry& geometry(GeomId id) const;

  FieldId allocate_field(GeomId geom, std::string name, ElemType type);
  Field& field(FieldId id);
  const Field& field(FieldId id) const;
  void free_field(FieldId id);

  ThreadPool& pool() { return *pool_; }
  support::SplitMix64& rng() { return rng_; }

  const CostStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CostStats{}; }

  // The Paris-style trace (empty unless options.record_paris_trace).
  const std::vector<std::string>& paris_trace() const { return trace_; }
  void clear_paris_trace() { trace_.clear(); }

  // ---- Cost charging (once per issued instruction) ----

  // Scalar work on the front end.
  void charge_frontend(std::uint64_t n_ops = 1);
  // One SIMD elementwise instruction over a VP set of the given size;
  // n_ops elementary ALU/memory steps per VP.  `planned` means the front
  // end replayed a cached issue plan (src/cm/plan_cache.hpp): the per-VP
  // work is unchanged but issue overhead drops to plan_issue_overhead.
  void charge_vector_op(std::int64_t vp_set_size, std::uint64_t n_ops = 1,
                        bool planned = false);
  // One instruction whose operand arrives over the NEWS grid, `hops` grid
  // steps away (|delta| in the shifted-access pattern).
  void charge_news(std::int64_t vp_set_size, std::uint64_t hops = 1);
  // One instruction using the general router, delivering n_messages.
  // Delivery happens in waves of at most `physical_processors` messages.
  void charge_router(std::int64_t vp_set_size, std::uint64_t n_messages);
  // One log-depth reduce/scan instruction over n_elems operands living in a
  // VP set of the given size.  `planned` as for charge_vector_op: a cached
  // scan tree is replayed instead of rebuilt.
  void charge_reduce(std::int64_t vp_set_size, std::int64_t n_elems,
                     bool planned = false);
  // Global-OR over the current context (hardware wired-OR).
  void charge_global_or();
  // Front-end broadcast of a scalar to a VP set.
  void charge_broadcast(std::int64_t vp_set_size);
  // The communication of one statement's accesses over a VP set of the
  // given size (cm/access.hpp): one NEWS instruction as far as the longest
  // hop, one router instruction delivering every routed access, one
  // broadcast, then the front-end accesses, each only when counted.
  void charge_access(std::int64_t vp_set_size, const AccessStats& stats);

  // ---- Robustness layer (docs/ROBUSTNESS.md) ----

  const FaultInjector& fault_injector() const { return injector_; }
  // Mutable access, for durable-snapshot restore only: a resume sets the
  // injector RNG back to the captured schedule position so post-resume
  // fault draws — and therefore cycles — match the uninterrupted run.
  FaultInjector& fault_injector() { return injector_; }
  // One VM-level replay (statement retry or checkpoint restore).
  void note_rollback() { stats_.rollbacks += 1; }
  // One snapshot persisted to disk / one restore from disk
  // (docs/ROBUSTNESS.md "Durable checkpoints & resume").  Host-side
  // counters only: neither charges modeled cycles, so --checkpoint-dir
  // and --resume are cycle-neutral.
  void note_durable_checkpoint() { stats_.durable_checkpoints += 1; }
  void note_resume() { stats_.resumes += 1; }
  // One statement issued from a cached communication/issue plan
  // (src/cm/plan_cache.hpp).  Pure counter — the cycle savings land via
  // the `planned` flag on charge_vector_op / charge_reduce.
  void note_plan_hit() { stats_.plan_hits += 1; }
  // One checkpoint capture copying `words` field words: charged like a
  // streaming vector copy so the robustness overhead shows up in cycles.
  void charge_checkpoint(std::int64_t words);
  // Bytes currently allocated to fields (payload + defined flags).
  std::uint64_t field_bytes() const { return field_bytes_; }

  // Field slots in allocation order, for the VM's snapshot codec
  // (src/ucvm/checkpoint.hpp): field_at(slot) is null for a freed slot.
  std::size_t field_slots() const { return fields_.size(); }
  Field* field_at(std::size_t slot) { return fields_[slot].get(); }

  // Durable-restore hook: a resumed process re-executes the run prefix
  // deterministically, then jumps machine accounting forward to the
  // captured values (restored stats are always >= the prefix's — the
  // delta is the skipped window's charges).  Only a --resume restore
  // calls this (docs/ROBUSTNESS.md).
  void set_stats(const CostStats& s) { stats_ = s; }

 private:
  // Runs the detection/retry protocol for one protected instruction whose
  // single attempt costs `attempt_cycles` and touches `units` failure
  // units.  Charges detection overhead, any backoff + re-issue cycles, and
  // throws support::TransientFault when max_retries consecutive attempts
  // fail.  No-op (zero cycles) when kind `k` is not under injection.
  void faultable(FaultKind k, std::uint64_t units,
                 std::uint64_t attempt_cycles);
  MachineOptions options_;
  std::vector<std::unique_ptr<Geometry>> geometries_;
  std::vector<std::unique_ptr<Field>> fields_;  // slot reuse after free
  std::vector<std::int32_t> free_field_slots_;
  std::unique_ptr<ThreadPool> pool_;
  support::SplitMix64 rng_;
  FaultInjector injector_;
  std::uint64_t field_bytes_ = 0;
  CostStats stats_;
  std::vector<std::string> trace_;
  // Appends a printf-formatted line to the Paris trace; formats nothing
  // unless options.record_paris_trace is set.
  void trace(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

}  // namespace uc::cm
