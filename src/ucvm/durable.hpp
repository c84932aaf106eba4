// Durable on-disk checkpoints with crash recovery
// (docs/ROBUSTNESS.md "Durable checkpoints & resume").
//
// The in-memory checkpoint layer (checkpoint.hpp) survives transient
// machine faults; it does not survive the *process*.  This layer persists
// every in-memory capture as a versioned, CRC-checksummed snapshot file in
// ExecOptions::checkpoint_dir, rotating the last `checkpoint_keep`
// generations.  Every generation is written atomically (temp file +
// rename) so a kill mid-write can tear at most the generation being
// written — never a previously completed one.  fsyncs are batched per
// rotation rather than paid per capture: generations accumulate to twice
// `checkpoint_keep` before old ones are deleted, and the newest file (plus
// the directory) is fsynced once immediately before each deletion batch,
// so the set of durably intact fallbacks never shrinks.  Captures between
// rotations ride the page cache — they survive a process kill always, and
// an OS crash merely falls back to the last fsynced (or otherwise intact)
// generation, which resumes to the identical final state.
//
// Resume model: a snapshot cannot name live pointers, so --resume does not
// deserialize into a cold VM.  Instead the fresh process re-executes the
// run prefix deterministically (same program, same seeds, same fault
// schedule) until it constructs the recovery scope whose construction
// ordinal the snapshot recorded; that scope's first safe point applies the
// snapshot — machine image, scalars, lane locals, output text, RNG and
// cadence counters, cost stats, plan cache — instead of capturing, and the
// run continues exactly where the dead process left off.  Final output and
// modeled cycles are bit-identical to an uninterrupted run.
//
// Fallback: generations are validated newest-first (magic, version,
// program/options identity hashes, payload CRC); a corrupt or torn file is
// skipped with a diagnostic and the next-older one is tried.  Any intact
// generation yields the identical final state, because restore is a pure
// forward jump on a deterministic prefix.  No intact generation = the run
// executes from scratch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cm/cost.hpp"
#include "cm/machine.hpp"
#include "cm/plan_cache.hpp"
#include "ucvm/value.hpp"

namespace uc::vm::detail {

struct Impl;
struct Frame;
struct LaneSpace;
struct Checkpoint;

// A fully decoded snapshot, pointer-free: chain levels are keyed by depth
// and validated against the live lane-space chain at apply time.
struct DecodedSnapshot {
  cm::MachineImage machine;
  std::uint64_t plan_epoch = 0;
  std::uint64_t injector_rng = 0;
  cm::CostStats stats;
  std::vector<std::pair<std::uint64_t, Value>> global_scalars;
  std::vector<std::pair<std::uint64_t, Value>> frame_scalars;
  struct Level {
    std::int64_t lanes = 0;  // validation only
    std::vector<std::pair<std::int32_t, std::vector<Value>>> locals;
  };
  std::vector<Level> chain;  // innermost first, like Checkpoint::chain
  std::string output;        // full text: a fresh process has no prefix
  std::uint64_t stmt_counter = 0;
  std::uint64_t fe_rng_state = 0;
  std::uint64_t ckpt_stmt_seq = 0;
  std::uint64_t ckpt_last_capture = 0;
  std::uint64_t ckpt_replays = 0;
  struct PlanEntry {
    std::uint64_t key = 0;
    std::vector<cm::PlanCharge> charges;
    // Annotation sites as stable AST node ids (Impl::node_id), resolved
    // back to pointers at apply time.
    std::vector<std::pair<std::uint64_t, std::uint8_t>> annotations;
    std::uint64_t hits = 0;
  };
  std::vector<PlanEntry> plans;
  std::uint64_t scope_ordinal = 0;
  std::uint64_t generation = 0;
};

class DurableCheckpoints {
 public:
  // Prepares the directory.  With ExecOptions::resume set, scans existing
  // generations newest-first, decodes the first intact one as the pending
  // resume, and logs a sourced diagnostic for every skipped file; without
  // it, deletes stale snapshot files (they belong to a finished or
  // unrelated run).
  explicit DurableCheckpoints(Impl& vm);

  // Final rotation: trims the directory down to `checkpoint_keep`
  // generations (fsyncing the newest first) so a completed run leaves
  // exactly the configured fallback set behind.  A killed process skips
  // this; the resume scan simply sees a few extra generations.
  ~DurableCheckpoints();

  bool resume_pending() const { return pending_.has_value(); }
  std::uint64_t resume_ordinal() const { return pending_->scope_ordinal; }

  // Persists one captured checkpoint as the next generation (atomic write,
  // rotation).  Called from RecoveryScope::safe_point at every in-memory
  // capture once no resume is pending.
  void write(const Checkpoint& c, std::uint64_t ordinal);

  // Applies (and consumes) the pending snapshot into the live VM at the
  // matching scope.  False = the decoded chain shape does not match the
  // re-executed state (identity hashes collided, or the program is
  // nondeterministic); the run then continues from scratch.  Throws
  // UcRuntimeError if the machine image itself no longer fits — state is
  // unusable at that point, so continuing silently would be wrong.
  bool apply_resume(LaneSpace* space, Frame* frame);

  // Fingerprint of every option that steers execution semantics (engine,
  // optimisation toggles, seeds, cost model, fault spec).  Host-only knobs
  // (host threads, timeout, tracing) are excluded: they never
  // change outputs or modeled cycles, so a snapshot stays resumable across
  // them.
  static std::uint64_t options_fingerprint(const Impl& vm);

 private:
  void log(const std::string& msg) const;
  std::string generation_path(std::uint64_t gen) const;
  // Sorted ascending list of the generation numbers present on disk.
  std::vector<std::uint64_t> list_generations() const;
  // Deletes all but the newest `keep_` generations, after making the
  // newest one durable (file fsync + directory fsync) so the deletions
  // never reduce the set of durably intact fallbacks.
  void trim(std::vector<std::uint64_t>& gens);

  Impl& vm_;
  std::string dir_;
  std::uint64_t keep_ = 1;  // checkpoint_keep, clamped to >= 1
  std::uint64_t next_generation_ = 1;
  bool wrote_any_ = false;
  std::optional<DecodedSnapshot> pending_;
};

}  // namespace uc::vm::detail
