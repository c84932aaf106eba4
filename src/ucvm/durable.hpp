// Durable on-disk checkpoints with crash recovery
// (docs/ROBUSTNESS.md "Durable checkpoints & resume").
//
// The in-memory checkpoint layer (checkpoint.hpp) survives transient
// machine faults; it does not survive the *process*.  This layer keeps
// only files: it writes every in-memory capture, which is already an
// encoded payload, behind a 56-byte header with a CRC as one snapshot file
// in ExecOptions::checkpoint_dir, rotating the last `checkpoint_keep`
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
// deserialize into a cold VM.  The resume scan only picks the newest
// intact generation and keeps its payload bytes.  The fresh process
// re-executes the run prefix deterministically (same program, same seeds,
// same fault schedule) until it constructs the recovery scope whose
// construction ordinal the snapshot recorded; that scope's first safe
// point restores the payload with the same codec a rollback uses
// (checkpoint.hpp) and keeps the bytes as its in-memory checkpoint.  The
// run continues exactly where the dead process left off: final output and
// modeled cycles are bit-identical to an uninterrupted run.
//
// Fallback: generations are validated newest-first (magic, version,
// program/options identity hashes, payload CRC); a corrupt or torn file is
// skipped with a diagnostic and the next-older one is tried.  Any intact
// generation yields the identical final state, because restore is a pure
// forward jump on a deterministic prefix.  No intact generation = the run
// executes from scratch, and so does a CRC-valid payload that the codec
// rejects when the scope applies it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uc::vm::detail {

struct Impl;

class DurableCheckpoints {
 public:
  // Prepares the directory.  With ExecOptions::resume set, scans existing
  // generations newest-first, keeps the payload of the first intact one as
  // the pending resume, and logs a sourced diagnostic for every skipped
  // file; without it, deletes stale snapshot files (they belong to a
  // finished or unrelated run).
  explicit DurableCheckpoints(Impl& vm);

  // Final rotation: trims the directory down to `checkpoint_keep`
  // generations (fsyncing the newest first) so a completed run leaves
  // exactly the configured fallback set behind.  A killed process skips
  // this; the resume scan simply sees a few extra generations.
  ~DurableCheckpoints();

  bool resume_pending() const { return pending_.has_value(); }
  std::uint64_t resume_ordinal() const { return pending_ordinal_; }
  // Hands over the pending payload (one shot: success or scratch, never
  // retried).
  std::string take_resume();

  // Persists one capture's payload as the next generation (header + the
  // payload bytes, atomic write, rotation).  Called from
  // RecoveryScope::safe_point at every in-memory capture once no resume
  // is pending.
  void write(std::string_view payload, std::uint64_t ordinal);

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
  std::optional<std::string> pending_;
  std::uint64_t pending_ordinal_ = 0;
};

}  // namespace uc::vm::detail
