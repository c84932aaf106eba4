#include "ucvm/checkpoint.hpp"

#include "support/str.hpp"
#include "ucvm/durable.hpp"
#include "ucvm/interp_detail.hpp"

namespace uc::vm::detail {

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

void CheckpointManager::capture(Checkpoint& c, LaneSpace* space,
                                Frame* frame, bool charge) {
  vm_.machine.snapshot_state(c.machine);
  std::int64_t words = c.machine.words();
  c.global_scalars.clear();
  for (std::size_t i = 0; i < vm_.globals.size(); ++i) {
    if (vm_.globals[i].kind == FrameSlot::Kind::kScalar) {
      c.global_scalars.emplace_back(i, vm_.globals[i].scalar);
      ++words;
    }
  }
  c.frame = frame;
  c.frame_scalars.clear();
  if (frame != nullptr) {
    for (std::size_t i = 0; i < frame->slots.size(); ++i) {
      if (frame->slots[i].kind == FrameSlot::Kind::kScalar) {
        c.frame_scalars.emplace_back(i, frame->slots[i].scalar);
        ++words;
      }
    }
  }
  c.chain.clear();
  for (LaneSpace* s = space; s != nullptr; s = s->parent) {
    c.chain.push_back({s, s->locals});
    for (const auto& [slot, vals] : s->locals) {
      (void)slot;
      words += static_cast<std::int64_t>(vals.size());
    }
  }
  c.output_size = vm_.output.size();
  c.stmt_counter = vm_.stmt_counter;
  c.fe_rng_state = vm_.fe_rng.state();
  if (charge) vm_.machine.charge_checkpoint(words);
  last_capture_seq_ = stmt_seq_;
}

void CheckpointManager::restore(const Checkpoint& c) {
  vm_.machine.restore_state(c.machine);
  for (const auto& [slot, value] : c.global_scalars) {
    vm_.globals[slot].scalar = value;
  }
  if (c.frame != nullptr) {
    for (const auto& [slot, value] : c.frame_scalars) {
      c.frame->slots[slot].scalar = value;
    }
  }
  // Whole-map replacement: drops lane locals declared after the capture
  // and rewinds every committed lane-local write.
  for (const auto& sl : c.chain) {
    sl.space->locals = sl.locals;
  }
  vm_.output.resize(c.output_size);
  vm_.stmt_counter = c.stmt_counter;
  vm_.fe_rng.seed(c.fe_rng_state);
  // Restore rewinds data to the captured mapping, but the plan epoch kept
  // counting through any post-capture remaps — statements re-executed now
  // would otherwise hit communication plans recorded under the later
  // layout and replay the wrong charge recipe against pre-remap state.
  // Bumping to a *fresh* epoch (never rewinding to the captured value,
  // which would collide with entries recorded before the capture under
  // that same epoch) retires every cached plan recorded on the abandoned
  // timeline.
  ++vm_.plan_epoch_;
}

RecoveryScope::RecoveryScope(Impl& vm, const lang::Stmt* where)
    : vm_(vm), where_(where), ordinal_(vm.scope_seq_++) {}

RecoveryScope::~RecoveryScope() {
  if (ckpt_.has_value()) --vm_.ckpt->live_checkpoints_;
}

void RecoveryScope::safe_point(LaneSpace* space, Frame* frame,
                               bool mandatory) {
  auto& mgr = *vm_.ckpt;
  if (!mgr.enabled()) return;
  // Cross-process resume hand-off (docs/ROBUSTNESS.md "Durable checkpoints
  // & resume"): the fresh process re-executed the run prefix and has now
  // constructed the very scope whose snapshot survived on disk.  Apply it
  // instead of capturing, and re-anchor the restored state as this scope's
  // in-memory checkpoint (charge-free: the original capture's cost is part
  // of the restored stats).  Every safe point of one scope passes the same
  // (space, frame) pair, so a snapshot captured at a later sweep top
  // installs correctly at construct entry — re-dispatching from entry with
  // sweep-N state resumes sweep N, the same argument in-memory recovery
  // rests on.
  if (vm_.durable != nullptr && vm_.durable->resume_pending() &&
      vm_.durable->resume_ordinal() == ordinal_ && !ckpt_.has_value()) {
    if (vm_.durable->apply_resume(space, frame)) {
      ckpt_.emplace(mgr.spares_);
      mgr.capture(**ckpt_, space, frame, /*charge=*/false);
      ++mgr.live_checkpoints_;
      return;
    }
    // Shape mismatch: the pending resume was dropped; fall through and run
    // forward from here as a normal from-scratch execution.
  }
  if (!mandatory && mgr.any_checkpoint() && !mgr.due()) return;
  if (!ckpt_.has_value()) {
    ckpt_.emplace(mgr.spares_);
    ++mgr.live_checkpoints_;
  }
  mgr.capture(**ckpt_, space, frame);
  // Persist every capture (no extra cadence, so --checkpoint-dir never
  // changes modeled cycles) — except while a resume is still pending:
  // prefix re-execution must not rotate out the generations it may yet
  // need to fall back to.
  if (vm_.durable != nullptr && !vm_.durable->resume_pending()) {
    vm_.durable->write(**ckpt_, ordinal_);
  }
}

bool RecoveryScope::try_recover() {
  if (!ckpt_.has_value()) return false;
  auto& mgr = *vm_.ckpt;
  if (!mgr.consume_replay()) return false;
  mgr.restore(**ckpt_);
  vm_.machine.note_rollback();
  return true;
}

}  // namespace uc::vm::detail
