// VM checkpoint/rollback: the one snapshot codec (docs/ROBUSTNESS.md).
//
// A checkpoint is an encoded snapshot payload, the same bytes a durable
// generation stores after its header (durable.hpp).  It holds everything a
// UC program can observe: machine field payloads + defined flags, the
// machine RNG, global and frame scalars, the per-lane locals of the live
// lane-space chain, the output text, the statement counter and the
// front-end RNG.  Because lane RNGs are derived from (base seed, statement
// id, VP), restoring this state makes re-execution bit-exact — which is
// the whole correctness argument: replay from a snapshot retraces the
// original run.  The payload also carries what only a fresh process needs
// (cost stats, fault schedule position, plan epoch and cache, capture
// cadence), so a capture is durable as it stands.
//
// restore() serves both uses and checks the payload's shape against the
// live state before it mutates anything.  A rollback applies only the
// program-visible state: recovery costs real cycles, and rewinding the
// fault schedule would replay the same fault forever.  A --resume also
// sets the stats, fault schedule, plan state and cadence counters.
//
// Snapshots are captured at *safe points* — places where re-entering the
// enclosing construct from its start, with the captured state, re-executes
// exactly what originally followed the capture: construct entry, and the
// sweep/round tops of the starred fixed-point loops (whose iteration has
// no loop-carried control state).  `solve` captures at entry only: its
// round loop carries fired-equation flags a field snapshot cannot rewind.
//
// RecoveryScope is the RAII anchor: each construct driver owns one, and on
// a support::TransientFault the innermost scope holding a checkpoint
// restores it and re-runs its construct; scopes without one let the fault
// unwind to an outer scope (whose snapshot is older but equally valid —
// restore rewinds every commit made since).  ExecOptions::checkpoint_every
// throttles how often safe points actually capture.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/free_list.hpp"

namespace uc::vm::detail {

struct Impl;
struct Frame;
struct LaneSpace;

// A payload or header that does not parse, or does not fit the live state.
struct SnapshotInvalid : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Little-endian appends to a byte buffer.
struct ByteWriter {
  std::string& buf;

  void bytes(const void* p, std::size_t n) {
    buf.append(static_cast<const char*>(p), n);
  }
  void u8(std::uint8_t v) { buf.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { uint(v, 4); }
  void u64(std::uint64_t v) { uint(v, 8); }
  void uint(std::uint64_t v, int n) {
    char b[8];
    for (int k = 0; k < n; ++k) b[k] = static_cast<char>(v >> (8 * k));
    buf.append(b, static_cast<std::size_t>(n));
  }
  // Overwrites the u64 written at byte offset `at`.
  void u64_at(std::size_t at, std::uint64_t v) {
    for (int k = 0; k < 8; ++k) buf[at + k] = static_cast<char>(v >> (8 * k));
  }
};

// Little-endian reads that throw SnapshotInvalid past the end.
struct ByteReader {
  std::string_view in;
  std::size_t pos = 0;

  void need(std::size_t k) const {
    if (in.size() - pos < k) {
      throw SnapshotInvalid("payload truncated mid-record");
    }
  }
  const char* bytes(std::size_t k) {
    need(k);
    pos += k;
    return in.data() + pos - k;
  }
  std::uint8_t u8() { return static_cast<std::uint8_t>(*bytes(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(uint(4)); }
  std::uint64_t u64() { return uint(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::uint64_t uint(int n) {
    const char* p = bytes(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int k = 0; k < n; ++k) {
      v |= std::uint64_t{static_cast<unsigned char>(p[k])} << (8 * k);
    }
    return v;
  }
  // Element count of a variable-length record: bounded by the remaining
  // bytes so a corrupt count cannot drive a multi-gigabyte resize.
  std::uint64_t count(std::size_t min_elem_bytes) {
    const std::uint64_t c = u64();
    if (c > (in.size() - pos) / min_elem_bytes) {
      throw SnapshotInvalid("payload truncated mid-record");
    }
    return c;
  }
};

enum class RestoreMode : std::uint8_t { kRollback, kResume };

// Per-run bookkeeping: capture cadence (statements since last capture vs
// ExecOptions::checkpoint_every), how many checkpoints are currently held
// by live scopes, the global replay budget, and the codec itself.
class CheckpointManager {
 public:
  explicit CheckpointManager(Impl& vm);

  bool enabled() const;
  // Called once per synchronous statement (the eval_lanes funnel).
  void note_statement() { ++stmt_seq_; }
  // Cadence: capture when at least `checkpoint_every` statements ran since
  // the last capture anywhere.
  bool due() const;
  bool any_checkpoint() const { return live_checkpoints_ > 0; }

  // Charges a capture and encodes the current state into `payload`,
  // reusing its storage.  `space` is the innermost live lane space and
  // `frame` the anchor frame; both must be the ones passed to restore().
  void capture(std::string& payload, LaneSpace* space, Frame* frame);
  // Applies `payload` in `mode` once its shape matches the live state.  On
  // a mismatch nothing is mutated: a rollback throws UcRuntimeError, a
  // resume logs the reason and returns false (the run goes on from
  // scratch).
  bool restore(std::string_view payload, LaneSpace* space, Frame* frame,
               RestoreMode mode);

  // Consumes one unit of the replay budget; false = budget exhausted and
  // the fault must escalate.
  bool consume_replay();
  std::uint64_t replays() const { return replays_; }
  std::uint64_t statements() const { return stmt_seq_; }

  // Frees the payloads of recovery scopes that have finished.
  void clear_spares() { spares_.clear(); }

 private:
  friend class RecoveryScope;
  // One walk over a payload: checks every record against the live state,
  // and writes it there too when `apply` is set.
  void decode(std::string_view payload, LaneSpace* space, Frame* frame,
              RestoreMode mode, bool apply);

  Impl& vm_;
  std::uint64_t stmt_seq_ = 0;
  std::uint64_t last_capture_seq_ = 0;
  std::uint64_t live_checkpoints_ = 0;
  std::uint64_t replays_ = 0;
  // Lets each seq round's scope capture into the previous round's buffer.
  support::FreeList<std::string> spares_;
};

// RAII recovery anchor owned by one construct driver.  The scope's
// checkpoint (if captured) is anchored at the construct's redo point;
// try_recover() restores it so the caller can re-dispatch the construct.
class RecoveryScope {
 public:
  explicit RecoveryScope(Impl& vm);
  ~RecoveryScope();
  RecoveryScope(const RecoveryScope&) = delete;
  RecoveryScope& operator=(const RecoveryScope&) = delete;

  // Declares a safe point of this scope's redo loop; every safe point of
  // one scope passes the same (space, frame) pair.  Captures (replacing
  // any previous checkpoint of this scope) when checkpointing is enabled
  // and the cadence is due, no scope holds a checkpoint yet, or
  // `mandatory` is set (solve, whose statements have no retry net).
  void safe_point(LaneSpace* space, Frame* frame, bool mandatory = false);

  // On a transient fault: restore this scope's checkpoint and charge a
  // rollback.  False = nothing to restore here (let the fault unwind) or
  // the replay budget is exhausted.
  bool try_recover();

  // Construction ordinal within the run (0 = the top-level net in run()).
  // Scope construction is deterministic given the program and seeds, so a
  // durable snapshot can name its capturing scope by ordinal and a resumed
  // process re-executing the prefix will construct the very same scope
  // with the very same ordinal — the hand-off point for --resume.
  std::uint64_t ordinal() const { return ordinal_; }

 private:
  // Takes a buffer for this scope's checkpoint.
  std::string& hold();

  Impl& vm_;
  std::uint64_t ordinal_ = 0;
  LaneSpace* space_ = nullptr;
  Frame* frame_ = nullptr;
  std::optional<support::FreeList<std::string>::Lease> ckpt_;
};

}  // namespace uc::vm::detail
