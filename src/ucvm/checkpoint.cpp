// Snapshot payload, format version 3 (docs/ROBUSTNESS.md "Snapshot
// format"), little-endian, records in this order:
//
//    1. machine: field count, then per live field its slot, word count,
//       words, flag count and defined flags; then the machine RNG
//    2. plan epoch, fault injector RNG
//    3. cost stats (cm::kCostStatsFields order)
//    4. global scalars: count, then (slot, value) pairs
//    5. anchor-frame scalars: count, then (slot, value) pairs
//    6. lane-space chain, innermost first: level count, then per level its
//       lane count and locals (count, then slot, value count, values)
//    7. output text (length + bytes)
//    8. statement counter, front-end RNG
//    9. capture cadence: statements run, statement of the last capture,
//       replays used
//   10. plan cache: entry count, then per entry its key, charges (kind,
//       n, m), annotation sites (stable node id, optimized flag) and hits
//
// A value is 17 bytes: is_float (u8), i (i64), f (f64 bits).
#include "ucvm/checkpoint.hpp"

#include <bit>
#include <cstring>
#include <iterator>

#include "support/error.hpp"
#include "support/str.hpp"
#include "ucvm/durable.hpp"
#include "ucvm/interp_detail.hpp"

namespace uc::vm::detail {

namespace {

constexpr std::size_t kValueBytes = 17;

void put_value(ByteWriter& w, const Value& v) {
  w.u8(v.is_float ? 1 : 0);
  w.u64(static_cast<std::uint64_t>(v.i));
  w.u64(std::bit_cast<std::uint64_t>(v.f));
}

Value get_value(ByteReader& r) {
  Value v;
  v.is_float = r.u8() != 0;
  v.i = r.i64();
  v.f = std::bit_cast<double>(r.u64());
  return v;
}

}  // namespace

CheckpointManager::CheckpointManager(Impl& vm) : vm_(vm) {}

bool CheckpointManager::enabled() const {
  return vm_.opts.checkpoint_every > 0;
}

bool CheckpointManager::due() const {
  return stmt_seq_ - last_capture_seq_ >= vm_.opts.checkpoint_every;
}

bool CheckpointManager::consume_replay() {
  // Replays during prefix re-execution (a durable resume that has not yet
  // reached its snapshot's scope) are free: that stretch of the program
  // already succeeded once, and the deterministic fault schedule replays
  // the same faults it survived then.  Charging them would make a resumed
  // run strictly weaker than the original (docs/ROBUSTNESS.md).
  if (vm_.durable != nullptr && vm_.durable->resume_pending()) return true;
  if (replays_ >= vm_.opts.max_replays) return false;
  ++replays_;
  return true;
}

void CheckpointManager::capture(std::string& payload, LaneSpace* space,
                                Frame* frame) {
  payload.clear();
  ByteWriter w{payload};
  cm::Machine& m = vm_.machine;
  // Words copied, as charged: field words, scalars and lane-local values.
  std::int64_t words = 0;
  auto counted = [&](auto&& records) {
    const std::size_t at = payload.size();
    w.u64(0);
    w.u64_at(at, records());
  };

  counted([&] {
    std::uint64_t n = 0;
    for (std::size_t slot = 0; slot < m.field_slots(); ++slot) {
      const cm::Field* f = m.field_at(slot);
      if (f == nullptr) continue;
      w.u64(slot);
      w.u64(f->raw().size());
      w.bytes(f->raw().data(), f->raw().size() * sizeof(cm::Bits));
      w.u64(f->defined_raw().size());
      w.bytes(f->defined_raw().data(), f->defined_raw().size());
      words += std::ssize(f->raw());
      ++n;
    }
    return n;
  });
  w.u64(m.rng().state());
  w.u64(vm_.plan_epoch_);
  w.u64(m.fault_injector().rng_state());
  // Filled in last, once this capture is charged.
  const std::size_t stats_at = payload.size();
  payload.resize(stats_at + 8 * std::size(cm::kCostStatsFields));

  auto scalars = [&](const std::vector<FrameSlot>* slots) {
    counted([&] {
      std::uint64_t n = 0;
      for (std::size_t i = 0; slots != nullptr && i < slots->size(); ++i) {
        if ((*slots)[i].kind != FrameSlot::Kind::kScalar) continue;
        w.u64(i);
        put_value(w, (*slots)[i].scalar);
        ++n;
      }
      words += static_cast<std::int64_t>(n);
      return n;
    });
  };
  scalars(&vm_.globals);
  scalars(frame != nullptr ? &frame->slots : nullptr);

  counted([&] {
    std::uint64_t n = 0;
    for (const LaneSpace* s = space; s != nullptr; s = s->parent, ++n) {
      w.u64(static_cast<std::uint64_t>(s->lane_count()));
      w.u64(s->locals.size());
      for (const auto& [slot, vals] : s->locals) {
        w.u64(static_cast<std::uint64_t>(std::int64_t{slot}));
        w.u64(vals.size());
        for (const Value& v : vals) put_value(w, v);
        words += std::ssize(vals);
      }
    }
    return n;
  });
  w.u64(vm_.output.size());
  w.bytes(vm_.output.data(), vm_.output.size());
  w.u64(vm_.stmt_counter);
  w.u64(vm_.fe_rng.state());

  m.charge_checkpoint(words);
  last_capture_seq_ = stmt_seq_;
  w.u64(stmt_seq_);
  w.u64(last_capture_seq_);
  w.u64(replays_);

  w.u64(vm_.plan_cache_.entries().size());
  for (const auto& [key, plan] : vm_.plan_cache_.entries()) {
    w.u64(key);
    w.u64(plan.charges.size());
    for (const auto& ch : plan.charges) {
      w.u8(static_cast<std::uint8_t>(ch.kind));
      w.u64(static_cast<std::uint64_t>(ch.n));
      w.u64(static_cast<std::uint64_t>(ch.m));
    }
    w.u64(plan.annotations.size());
    for (const auto& a : plan.annotations) {
      w.u64(vm_.node_id(a.site));
      w.u8(a.optimized ? 1 : 0);
    }
    w.u64(plan.hits);
  }

  // The stats include this capture's charge and, for a persisted capture,
  // its durable write, so a resumed run counts exactly like this one.
  std::size_t at = stats_at;
  for (const auto field : cm::kCostStatsFields) {
    w.u64_at(at, m.stats().*field);
    at += 8;
  }
}

bool CheckpointManager::restore(std::string_view payload, LaneSpace* space,
                                Frame* frame, RestoreMode mode) {
  try {
    decode(payload, space, frame, mode, /*apply=*/false);
  } catch (const SnapshotInvalid& e) {
    if (mode == RestoreMode::kRollback) {
      throw support::UcRuntimeError(std::string("checkpoint restore: ") +
                                    e.what());
    }
    if (vm_.opts.log) {
      vm_.opts.log(std::string("--resume: ") + e.what() +
                   "; running from scratch");
    }
    return false;
  }
  decode(payload, space, frame, mode, /*apply=*/true);
  return true;
}

void CheckpointManager::decode(std::string_view payload, LaneSpace* space,
                               Frame* frame, RestoreMode mode, bool apply) {
  const bool resume = mode == RestoreMode::kResume;
  ByteReader r{payload};
  cm::Machine& m = vm_.machine;

  const std::uint64_t n_fields = r.count(24);
  for (std::uint64_t k = 0; k < n_fields; ++k) {
    const std::uint64_t slot = r.u64();
    cm::Field* f = slot < m.field_slots() ? m.field_at(slot) : nullptr;
    const std::uint64_t n_words = r.count(sizeof(cm::Bits));
    if (f == nullptr || n_words != f->raw().size()) {
      throw SnapshotInvalid("snapshot fields do not match the live machine");
    }
    const char* words = r.bytes(n_words * sizeof(cm::Bits));
    if (r.count(1) != f->defined_raw().size()) {
      throw SnapshotInvalid("snapshot fields do not match the live machine");
    }
    const char* flags = r.bytes(f->defined_raw().size());
    if (!apply) continue;
    std::memcpy(f->raw().data(), words, n_words * sizeof(cm::Bits));
    std::memcpy(f->defined_raw().data(), flags, f->defined_raw().size());
  }
  const std::uint64_t machine_rng = r.u64();
  const std::uint64_t plan_epoch = r.u64();
  const std::uint64_t injector_rng = r.u64();
  cm::CostStats stats;
  for (const auto field : cm::kCostStatsFields) stats.*field = r.u64();

  auto scalars = [&](std::vector<FrameSlot>* slots) {
    const std::uint64_t n = r.count(8 + kValueBytes);
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::uint64_t slot = r.u64();
      const Value v = get_value(r);
      if (slots == nullptr || slot >= slots->size()) {
        throw SnapshotInvalid("snapshot scalar slots do not match the live "
                              "program");
      }
      if (apply) (*slots)[slot].scalar = v;
    }
  };
  scalars(&vm_.globals);
  scalars(frame != nullptr ? &frame->slots : nullptr);

  const std::uint64_t n_levels = r.count(16);
  LaneSpace* s = space;
  for (std::uint64_t k = 0; k < n_levels; ++k, s = s->parent) {
    if (s == nullptr || r.i64() != s->lane_count()) {
      throw SnapshotInvalid("snapshot lane-space chain does not match the "
                            "live program");
    }
    const std::uint64_t n_locals = r.count(16);
    const std::size_t locals_at = r.pos;
    for (std::uint64_t j = 0; j < n_locals; ++j) {
      const auto slot = static_cast<std::int32_t>(r.i64());
      if (r.count(kValueBytes) != static_cast<std::uint64_t>(
                                      s->lane_count())) {
        throw SnapshotInvalid("snapshot lane locals do not match the live "
                              "program");
      }
      if (!apply) {
        r.bytes(static_cast<std::size_t>(s->lane_count()) * kValueBytes);
        continue;
      }
      // Assigned in place: the map keeps its nodes and their order.
      auto& vals = s->locals[slot];
      vals.resize(static_cast<std::size_t>(s->lane_count()));
      for (Value& v : vals) v = get_value(r);
    }
    if (apply && s->locals.size() != n_locals) {
      // Drops the locals declared after the capture.
      std::erase_if(s->locals, [&](const auto& kv) {
        ByteReader again{payload, locals_at};
        for (std::uint64_t j = 0; j < n_locals; ++j) {
          if (static_cast<std::int32_t>(again.i64()) == kv.first) return false;
          again.bytes(static_cast<std::size_t>(again.u64()) * kValueBytes);
        }
        return true;
      });
    }
  }
  if (s != nullptr) {
    throw SnapshotInvalid("snapshot lane-space chain does not match the live "
                          "program");
  }
  const std::uint64_t output_size = r.count(1);
  const char* output = r.bytes(output_size);
  const std::uint64_t stmt_counter = r.u64();
  const std::uint64_t fe_rng = r.u64();
  const std::uint64_t stmt_seq = r.u64();
  const std::uint64_t last_capture = r.u64();
  const std::uint64_t replays = r.u64();

  // The plan cache matters only to a fresh process; a rollback checks it
  // parses and moves on.
  const bool plans = apply && resume;
  if (plans) vm_.plan_cache_.clear();
  const std::uint64_t n_plans = r.count(32);
  for (std::uint64_t k = 0; k < n_plans; ++k) {
    const std::uint64_t key = r.u64();
    cm::Plan plan;
    const std::uint64_t n_charges = r.count(17);
    for (std::uint64_t j = 0; j < n_charges; ++j) {
      cm::PlanCharge ch;
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(cm::PlanCharge::Kind::kReduce)) {
        throw SnapshotInvalid("snapshot plan cache has an unknown charge");
      }
      ch.kind = static_cast<cm::PlanCharge::Kind>(kind);
      ch.n = r.i64();
      ch.m = r.i64();
      if (plans) plan.charges.push_back(ch);
    }
    bool sites_ok = true;
    const std::uint64_t n_annots = r.count(9);
    for (std::uint64_t j = 0; j < n_annots; ++j) {
      const void* site = vm_.node_by_id(r.u64());
      const bool optimized = r.u8() != 0;
      sites_ok = sites_ok && site != nullptr;
      if (plans && site != nullptr) {
        plan.annotations.push_back({site, optimized});
      }
    }
    plan.hits = r.u64();
    if (!plans) continue;
    // An unresolvable annotation site drops just that entry: the statement
    // re-records its plan on next execution, never a wrong annotation.
    if (sites_ok) {
      vm_.plan_cache_.insert(key, std::move(plan));
    } else if (vm_.opts.log) {
      vm_.opts.log(support::format(
          "--resume: dropping one cached plan with an unresolvable "
          "annotation site (key %llu)", static_cast<unsigned long long>(key)));
    }
  }
  if (r.pos != payload.size()) {
    throw SnapshotInvalid("payload has trailing bytes past the last record");
  }
  if (!apply) return;

  m.rng().seed(machine_rng);
  vm_.output.assign(output, output_size);
  vm_.stmt_counter = stmt_counter;
  vm_.fe_rng.seed(fe_rng);
  if (!resume) {
    // Restore rewinds data to the captured mapping, but the plan epoch
    // kept counting through any post-capture remaps — statements
    // re-executed now would otherwise hit communication plans recorded
    // under the later layout and replay the wrong charge recipe against
    // pre-remap state.  Bumping to a *fresh* epoch (never rewinding to the
    // captured value, which would collide with entries recorded before the
    // capture under that same epoch) retires every cached plan recorded on
    // the abandoned timeline.
    ++vm_.plan_epoch_;
    return;
  }
  // A resume SETS the epoch: the prefix evolved it identically to the
  // original run, and the restored plan-cache entries are keyed under it.
  vm_.plan_epoch_ = plan_epoch;
  m.fault_injector().set_rng_state(injector_rng);
  m.set_stats(stats);
  m.note_resume();
  stmt_seq_ = stmt_seq;
  last_capture_seq_ = last_capture;
  replays_ = vm_.opts.fresh_replay_budget ? 0 : replays;
}

RecoveryScope::RecoveryScope(Impl& vm) : vm_(vm), ordinal_(vm.scope_seq_++) {}

RecoveryScope::~RecoveryScope() {
  if (ckpt_.has_value()) --vm_.ckpt->live_checkpoints_;
}

std::string& RecoveryScope::hold() {
  if (!ckpt_.has_value()) {
    ckpt_.emplace(vm_.ckpt->spares_);
    ++vm_.ckpt->live_checkpoints_;
  }
  return **ckpt_;
}

void RecoveryScope::safe_point(LaneSpace* space, Frame* frame,
                               bool mandatory) {
  auto& mgr = *vm_.ckpt;
  if (!mgr.enabled()) return;
  DurableCheckpoints* durable = vm_.durable.get();
  // Cross-process resume hand-off (docs/ROBUSTNESS.md "Durable checkpoints
  // & resume"): the fresh process re-executed the run prefix and has now
  // constructed the very scope whose snapshot survived on disk.  Apply it
  // instead of capturing, and keep its bytes as this scope's checkpoint.
  // Every safe point of one scope passes the same (space, frame) pair, so
  // a snapshot captured at a later sweep top installs correctly at
  // construct entry — re-dispatching from entry with sweep-N state resumes
  // sweep N, the same argument in-memory recovery rests on.
  if (durable != nullptr && durable->resume_pending() &&
      durable->resume_ordinal() == ordinal_ && !ckpt_.has_value()) {
    std::string payload = durable->take_resume();
    if (mgr.restore(payload, space, frame, RestoreMode::kResume)) {
      space_ = space;
      frame_ = frame;
      hold() = std::move(payload);
      return;
    }
    // Shape mismatch: run forward from here as a from-scratch execution.
  }
  if (!mandatory && mgr.any_checkpoint() && !mgr.due()) return;
  // Persist every capture (no extra cadence, so --checkpoint-dir never
  // changes modeled cycles) — except while a resume is still pending:
  // prefix re-execution must not rotate out the generations it may yet
  // need to fall back to.  Counted before encoding, so the persisted
  // stats already include this write.
  const bool persist = durable != nullptr && !durable->resume_pending();
  if (persist) vm_.machine.note_durable_checkpoint();
  space_ = space;
  frame_ = frame;
  std::string& payload = hold();
  mgr.capture(payload, space, frame);
  if (persist) durable->write(payload, ordinal_);
}

bool RecoveryScope::try_recover() {
  if (!ckpt_.has_value()) return false;
  auto& mgr = *vm_.ckpt;
  if (!mgr.consume_replay()) return false;
  mgr.restore(**ckpt_, space_, frame_, RestoreMode::kRollback);
  vm_.machine.note_rollback();
  return true;
}

}  // namespace uc::vm::detail
