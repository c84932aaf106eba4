// Durable checkpoint serialization, atomic persistence and the resume
// scan (docs/ROBUSTNESS.md "Durable checkpoints & resume").
//
// File format, version 3.  Header (56 bytes, little-endian):
//
//   offset  size  field
//        0     8  magic "UCCKPT01"
//        8     4  format version (3)
//       12     8  program hash   (FNV-1a over source + compile flags)
//       20     8  options hash   (options_fingerprint)
//       28     8  capturing scope ordinal
//       36     8  generation number
//       44     8  payload size in bytes
//       52     4  payload CRC-32 (IEEE)
//
// followed by the payload (encode_payload below).  The directory itself is
// the manifest: generations are recovered by listing ckpt-NNNNNNNN.uck, so
// there is no separate index file that a crash could leave inconsistent.
#include "ucvm/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"
#include "ucvm/interp_detail.hpp"

namespace uc::vm::detail {

namespace {

constexpr std::uint32_t kFormatVersion = 3;
constexpr std::uint64_t kMagic = [] {
  const char m[8] = {'U', 'C', 'C', 'K', 'P', 'T', '0', '1'};
  std::uint64_t v = 0;
  for (int k = 7; k >= 0; --k) {
    v = (v << 8) | static_cast<unsigned char>(m[k]);
  }
  return v;
}();
constexpr std::size_t kHeaderSize = 56;

// Validation failure of one snapshot file.  Caught by the resume scan,
// which logs the reason and falls back to the next-older generation.
struct SnapshotInvalid : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// Little-endian byte streams
// ---------------------------------------------------------------------------

struct ByteWriter {
  std::string buf;

  void bytes(const void* p, std::size_t n) {
    buf.append(static_cast<const char*>(p), n);
  }
  void u8(std::uint8_t v) { buf.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int k = 0; k < 4; ++k) u8(static_cast<std::uint8_t>(v >> (8 * k)));
  }
  void u64(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) u8(static_cast<std::uint8_t>(v >> (8 * k)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void value(const Value& v) {
    u8(v.is_float ? 1 : 0);
    i64(v.i);
    f64(v.f);
  }
};

struct ByteReader {
  const unsigned char* p = nullptr;
  std::size_t n = 0;
  std::size_t pos = 0;

  ByteReader(const void* data, std::size_t size)
      : p(static_cast<const unsigned char*>(data)), n(size) {}

  void need(std::size_t k) const {
    if (n - pos < k) {
      throw SnapshotInvalid("payload truncated mid-record");
    }
  }
  void bytes(void* out, std::size_t k) {
    need(k);
    std::memcpy(out, p + pos, k);
    pos += k;
  }
  std::uint8_t u8() {
    need(1);
    return p[pos++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) v |= std::uint32_t{p[pos++]} << (8 * k);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int k = 0; k < 8; ++k) v |= std::uint64_t{p[pos++]} << (8 * k);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t k = u64();
    need(k);
    std::string s(reinterpret_cast<const char*>(p + pos),
                  static_cast<std::size_t>(k));
    pos += static_cast<std::size_t>(k);
    return s;
  }
  Value value() {
    Value v;
    v.is_float = u8() != 0;
    v.i = i64();
    v.f = f64();
    return v;
  }
  // Element count of a variable-length record: bounded by the remaining
  // bytes so a corrupt count cannot drive a multi-gigabyte reserve.
  std::uint64_t count(std::size_t min_elem_bytes) {
    const std::uint64_t c = u64();
    if (min_elem_bytes != 0 && c > (n - pos) / min_elem_bytes) {
      throw SnapshotInvalid("payload truncated mid-record");
    }
    return c;
  }
};

// ---------------------------------------------------------------------------
// Payload encode/decode
// ---------------------------------------------------------------------------

void encode_stats(ByteWriter& w, const cm::CostStats& s) {
  w.u64(s.cycles);
  w.u64(s.vector_ops);
  w.u64(s.news_ops);
  w.u64(s.router_ops);
  w.u64(s.router_messages);
  w.u64(s.reductions);
  w.u64(s.global_ors);
  w.u64(s.broadcasts);
  w.u64(s.frontend_ops);
  w.u64(s.faults);
  w.u64(s.retries);
  w.u64(s.rollbacks);
  w.u64(s.checkpoints);
  w.u64(s.plan_hits);
  w.u64(s.durable_checkpoints);
  w.u64(s.resumes);
}

cm::CostStats decode_stats(ByteReader& r) {
  cm::CostStats s;
  s.cycles = r.u64();
  s.vector_ops = r.u64();
  s.news_ops = r.u64();
  s.router_ops = r.u64();
  s.router_messages = r.u64();
  s.reductions = r.u64();
  s.global_ors = r.u64();
  s.broadcasts = r.u64();
  s.frontend_ops = r.u64();
  s.faults = r.u64();
  s.retries = r.u64();
  s.rollbacks = r.u64();
  s.checkpoints = r.u64();
  s.plan_hits = r.u64();
  s.durable_checkpoints = r.u64();
  s.resumes = r.u64();
  return s;
}

void encode_payload(const Impl& vm, const Checkpoint& c, ByteWriter& w) {
  // 1. Machine image.
  w.u64(c.machine.fields.size());
  for (const auto& f : c.machine.fields) {
    w.i64(f.slot);
    w.u64(f.data.size());
    w.bytes(f.data.data(), f.data.size() * sizeof(cm::Bits));
    w.u64(f.defined.size());
    w.bytes(f.defined.data(), f.defined.size());
  }
  w.u64(c.machine.rng_state);
  // 2. Plan epoch + fault schedule position.
  w.u64(vm.plan_epoch_);
  w.u64(vm.machine.fault_injector().rng_state());
  // 3. Cost stats (already include this capture's charge and this durable
  //    write's counter, so the snapshot is self-consistent).
  encode_stats(w, vm.machine.stats());
  // 4/5. Scalars.
  w.u64(c.global_scalars.size());
  for (const auto& [slot, v] : c.global_scalars) {
    w.u64(slot);
    w.value(v);
  }
  w.u64(c.frame_scalars.size());
  for (const auto& [slot, v] : c.frame_scalars) {
    w.u64(slot);
    w.value(v);
  }
  // 6. Lane-space chain, innermost first.
  w.u64(c.chain.size());
  for (const auto& level : c.chain) {
    w.i64(level.space->lane_count());
    w.u64(level.locals.size());
    for (const auto& [slot, vals] : level.locals) {
      w.i64(slot);
      w.u64(vals.size());
      for (const auto& v : vals) w.value(v);
    }
  }
  // 7. Output text — in full: the resumed process prints nothing during
  //    prefix re-execution would be wrong, so it replaces its (identical)
  //    prefix output wholesale with the captured text.
  w.str(vm.output.substr(0, c.output_size));
  // 8. Front-end counters.
  w.u64(c.stmt_counter);
  w.u64(c.fe_rng_state);
  // 9. Checkpoint cadence + replay budget.
  w.u64(vm.ckpt->statements());
  w.u64(vm.ckpt->last_capture());
  w.u64(vm.ckpt->replays());
  // 10. Communication-plan cache, annotation sites as stable node ids.
  w.u64(vm.plan_cache_.entries().size());
  for (const auto& [key, plan] : vm.plan_cache_.entries()) {
    w.u64(key);
    w.u64(plan.charges.size());
    for (const auto& ch : plan.charges) {
      w.u8(static_cast<std::uint8_t>(ch.kind));
      w.i64(ch.n);
      w.i64(ch.m);
    }
    w.u64(plan.annotations.size());
    for (const auto& a : plan.annotations) {
      w.u64(vm.node_id(a.site));
      w.u8(a.optimized ? 1 : 0);
    }
    w.u64(plan.hits);
  }
}

DecodedSnapshot decode_payload(ByteReader& r) {
  DecodedSnapshot s;
  const std::uint64_t n_fields = r.count(8);
  s.machine.fields.reserve(static_cast<std::size_t>(n_fields));
  for (std::uint64_t k = 0; k < n_fields; ++k) {
    cm::MachineImage::FieldImage f;
    f.slot = static_cast<std::int32_t>(r.i64());
    const std::uint64_t words = r.count(sizeof(cm::Bits));
    f.data.resize(static_cast<std::size_t>(words));
    r.bytes(f.data.data(), static_cast<std::size_t>(words) * sizeof(cm::Bits));
    const std::uint64_t flags = r.count(1);
    f.defined.resize(static_cast<std::size_t>(flags));
    r.bytes(f.defined.data(), static_cast<std::size_t>(flags));
    s.machine.fields.push_back(std::move(f));
  }
  s.machine.rng_state = r.u64();
  s.plan_epoch = r.u64();
  s.injector_rng = r.u64();
  s.stats = decode_stats(r);
  const std::uint64_t n_globals = r.count(25);
  for (std::uint64_t k = 0; k < n_globals; ++k) {
    const std::uint64_t slot = r.u64();
    s.global_scalars.emplace_back(slot, r.value());
  }
  const std::uint64_t n_frame = r.count(25);
  for (std::uint64_t k = 0; k < n_frame; ++k) {
    const std::uint64_t slot = r.u64();
    s.frame_scalars.emplace_back(slot, r.value());
  }
  const std::uint64_t n_levels = r.count(16);
  for (std::uint64_t k = 0; k < n_levels; ++k) {
    DecodedSnapshot::Level level;
    level.lanes = r.i64();
    const std::uint64_t n_locals = r.count(16);
    for (std::uint64_t j = 0; j < n_locals; ++j) {
      const auto slot = static_cast<std::int32_t>(r.i64());
      const std::uint64_t n_vals = r.count(17);
      std::vector<Value> vals;
      vals.reserve(static_cast<std::size_t>(n_vals));
      for (std::uint64_t v = 0; v < n_vals; ++v) vals.push_back(r.value());
      level.locals.emplace_back(slot, std::move(vals));
    }
    s.chain.push_back(std::move(level));
  }
  s.output = r.str();
  s.stmt_counter = r.u64();
  s.fe_rng_state = r.u64();
  s.ckpt_stmt_seq = r.u64();
  s.ckpt_last_capture = r.u64();
  s.ckpt_replays = r.u64();
  const std::uint64_t n_plans = r.count(32);
  for (std::uint64_t k = 0; k < n_plans; ++k) {
    DecodedSnapshot::PlanEntry e;
    e.key = r.u64();
    const std::uint64_t n_charges = r.count(17);
    for (std::uint64_t j = 0; j < n_charges; ++j) {
      cm::PlanCharge ch;
      ch.kind = static_cast<cm::PlanCharge::Kind>(r.u8());
      ch.n = r.i64();
      ch.m = r.i64();
      e.charges.push_back(ch);
    }
    const std::uint64_t n_annots = r.count(9);
    for (std::uint64_t j = 0; j < n_annots; ++j) {
      const std::uint64_t id = r.u64();
      e.annotations.emplace_back(id, r.u8());
    }
    e.hits = r.u64();
    s.plans.push_back(std::move(e));
  }
  if (r.pos != r.n) {
    throw SnapshotInvalid("payload has trailing bytes past the last record");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotInvalid("cannot open file");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) throw SnapshotInvalid("read error");
  return bytes;
}

// Temp file + rename: after this returns the complete new file is in
// place under its final name, or (on a crash mid-call) the previous
// directory contents are intact.  A leftover .tmp is ignored by the
// generation scan.  Deliberately no fsync — durability is batched at
// rotation time (sync_file below), so the per-capture cost is one write
// and one rename; a crash before the next rotation can tear this file,
// which the CRC detects and the resume scan skips.
void write_file_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  auto fail = [&](const char* what) {
    throw support::UcRuntimeError(
        support::format("checkpoint-dir: cannot %s '%s': %s", what,
                        tmp.c_str(), std::strerror(errno)));
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("create");
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail("write");
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("commit");
}

// Makes an already-renamed generation durable: file data first, then the
// directory entry.  Best-effort (like the directory fsync always was) —
// an fsync failure degrades durability, not correctness, because the
// resume scan CRC-validates every generation anyway.
void sync_file(const std::string& dir, const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// DurableCheckpoints
// ---------------------------------------------------------------------------

std::uint64_t DurableCheckpoints::options_fingerprint(const Impl& vm) {
  using support::fnv1a_u64;
  const auto& o = vm.opts;
  const auto& mo = vm.machine.options();
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::uint64_t v) { h = fnv1a_u64(v, h); };
  auto fold_f = [&fold](double v) { fold(std::bit_cast<std::uint64_t>(v)); };
  fold(static_cast<std::uint64_t>(o.engine));
  fold((o.common_subexpression_elimination ? 1u : 0u) |
       (o.processor_optimization ? 2u : 0u) | (o.apply_mappings ? 4u : 0u));
  fold(static_cast<std::uint64_t>(o.max_iterations));
  fold(o.checkpoint_every);
  fold(o.max_replays);
  fold(mo.seed);
  fold(mo.max_field_bytes);
  fold(mo.cost.physical_processors);
  fold_f(mo.cost.clock_hz);
  fold(mo.cost.issue_overhead);
  fold(mo.cost.alu_op);
  fold(mo.cost.mem_op);
  fold(mo.cost.news_op);
  fold(mo.cost.router_op);
  fold(mo.cost.scan_step);
  fold(mo.cost.global_or_op);
  fold(mo.cost.broadcast_op);
  fold(mo.cost.frontend_op);
  fold(mo.cost.plan_issue_overhead);
  fold_f(mo.faults.router_p);
  fold_f(mo.faults.news_p);
  fold_f(mo.faults.reduce_p);
  fold_f(mo.faults.memory_p);
  fold(mo.faults.seed);
  fold(mo.faults.max_retries);
  fold(mo.faults.backoff_cycles);
  fold(mo.faults.detect_cycles);
  return h;
}

void DurableCheckpoints::log(const std::string& msg) const {
  if (vm_.opts.log) vm_.opts.log(msg);
}

std::string DurableCheckpoints::generation_path(std::uint64_t gen) const {
  return dir_ + support::format("/ckpt-%08llu.uck",
                                static_cast<unsigned long long>(gen));
}

std::vector<std::uint64_t> DurableCheckpoints::list_generations() const {
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 5 + 8 + 4 || name.rfind("ckpt-", 0) != 0 ||
        name.substr(13) != ".uck") {
      continue;
    }
    std::uint64_t gen = 0;
    bool digits = true;
    for (std::size_t k = 5; k < 13; ++k) {
      if (name[k] < '0' || name[k] > '9') {
        digits = false;
        break;
      }
      gen = gen * 10 + static_cast<std::uint64_t>(name[k] - '0');
    }
    if (digits) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

DurableCheckpoints::DurableCheckpoints(Impl& vm)
    : vm_(vm),
      dir_(vm.opts.checkpoint_dir),
      keep_(std::max<std::uint64_t>(vm.opts.checkpoint_keep, 1)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw support::UcRuntimeError("checkpoint-dir: cannot create '" + dir_ +
                                  "': " + ec.message());
  }
  const auto gens = list_generations();
  next_generation_ = gens.empty() ? 1 : gens.back() + 1;
  if (!vm_.opts.resume) {
    // A fresh (non-resume) run owns the directory: stale generations from
    // an earlier run would otherwise be offered to a later --resume as if
    // they belonged to this history.
    for (const auto g : gens) std::filesystem::remove(generation_path(g), ec);
    next_generation_ = 1;
    return;
  }
  // Newest-first scan, falling back generation by generation past anything
  // torn or corrupt.  Any intact generation yields the identical final
  // run: restore is a forward jump on a deterministic prefix, so only the
  // amount of re-executed work differs.
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const std::string path = generation_path(*it);
    try {
      const std::string bytes = read_file_bytes(path);
      if (bytes.size() < kHeaderSize) {
        throw SnapshotInvalid("truncated header (torn write)");
      }
      ByteReader head(bytes.data(), kHeaderSize);
      if (head.u64() != kMagic) {
        throw SnapshotInvalid("not a UC checkpoint (bad magic)");
      }
      const std::uint32_t version = head.u32();
      if (version != kFormatVersion) {
        throw SnapshotInvalid(
            support::format("format version %u, expected %u", version,
                            kFormatVersion));
      }
      if (head.u64() != vm_.opts.program_hash) {
        throw SnapshotInvalid(
            "written by a different program (source hash mismatch)");
      }
      if (head.u64() != options_fingerprint(vm_)) {
        throw SnapshotInvalid("written under different execution options");
      }
      const std::uint64_t ordinal = head.u64();
      (void)head.u64();  // generation (authoritative copy is the filename)
      const std::uint64_t payload_size = head.u64();
      const std::uint32_t payload_crc = head.u32();
      if (bytes.size() - kHeaderSize != payload_size) {
        throw SnapshotInvalid("truncated payload (torn write)");
      }
      if (support::crc32(bytes.data() + kHeaderSize, payload_size) !=
          payload_crc) {
        throw SnapshotInvalid("payload checksum mismatch (corrupt or torn "
                              "write)");
      }
      ByteReader body(bytes.data() + kHeaderSize, payload_size);
      DecodedSnapshot snap = decode_payload(body);
      snap.scope_ordinal = ordinal;
      snap.generation = *it;
      log(support::format("--resume: restoring generation %llu (scope "
                          "ordinal %llu) from %s",
                          static_cast<unsigned long long>(*it),
                          static_cast<unsigned long long>(ordinal),
                          path.c_str()));
      pending_ = std::move(snap);
      return;
    } catch (const SnapshotInvalid& e) {
      log("checkpoint-dir: skipping " + path + ": " + e.what());
    }
  }
  log("--resume: no intact checkpoint found in '" + dir_ +
      "'; running from scratch");
}

void DurableCheckpoints::write(const Checkpoint& c, std::uint64_t ordinal) {
  // Counted before encoding so the persisted stats already include this
  // write — a resumed run's durable_checkpoints then matches the
  // uninterrupted run's at every point.
  vm_.machine.note_durable_checkpoint();
  const std::uint64_t gen = next_generation_++;
  ByteWriter payload;
  encode_payload(vm_, c, payload);
  ByteWriter out;
  out.u64(kMagic);
  out.u32(kFormatVersion);
  out.u64(vm_.opts.program_hash);
  out.u64(options_fingerprint(vm_));
  out.u64(ordinal);
  out.u64(gen);
  out.u64(payload.buf.size());
  out.u32(support::crc32(payload.buf.data(), payload.buf.size()));
  out.buf += payload.buf;
  write_file_atomic(generation_path(gen), out.buf);
  wrote_any_ = true;
  // Batched rotation: let generations accumulate to twice the keep budget
  // and only then delete the surplus, so the fsync in trim() is amortized
  // over ~keep captures instead of being paid on every one.  The
  // destructor performs a final trim down to exactly `keep_`.
  auto gens = list_generations();
  if (gens.size() > 2 * keep_) trim(gens);
}

void DurableCheckpoints::trim(std::vector<std::uint64_t>& gens) {
  if (gens.size() <= keep_) return;
  // Deletions happen only after the newest generation is durably on disk,
  // so a crash anywhere in this sequence never reduces the set of intact
  // fallbacks below one.
  sync_file(dir_, generation_path(gens.back()));
  std::error_code ec;
  while (gens.size() > keep_) {
    std::filesystem::remove(generation_path(gens.front()), ec);
    gens.erase(gens.begin());
  }
}

DurableCheckpoints::~DurableCheckpoints() {
  if (!wrote_any_) return;
  auto gens = list_generations();
  trim(gens);
}

bool DurableCheckpoints::apply_resume(LaneSpace* space, Frame* frame) {
  DecodedSnapshot snap = std::move(*pending_);
  pending_.reset();  // one shot: success or scratch, never retried
  // Cheap shape pre-validation before mutating anything, so a mismatch
  // (identity-hash collision, or a nondeterministic program) degrades to a
  // from-scratch run instead of corrupting live state.
  std::size_t depth = 0;
  for (const LaneSpace* s = space; s != nullptr; s = s->parent) ++depth;
  if (depth != snap.chain.size()) {
    log(support::format("--resume: snapshot lane-space depth %llu does not "
                        "match the re-executed program (%llu); running from "
                        "scratch",
                        static_cast<unsigned long long>(snap.chain.size()),
                        static_cast<unsigned long long>(depth)));
    return false;
  }
  std::size_t k = 0;
  for (const LaneSpace* s = space; s != nullptr; s = s->parent, ++k) {
    if (s->lane_count() != snap.chain[k].lanes) {
      log("--resume: snapshot lane counts do not match the re-executed "
          "program; running from scratch");
      return false;
    }
  }
  for (const auto& [slot, v] : snap.global_scalars) {
    (void)v;
    if (slot >= vm_.globals.size()) {
      log("--resume: snapshot global slots do not match the re-executed "
          "program; running from scratch");
      return false;
    }
  }
  for (const auto& [slot, v] : snap.frame_scalars) {
    (void)v;
    if (frame == nullptr || slot >= frame->slots.size()) {
      log("--resume: snapshot frame slots do not match the re-executed "
          "program; running from scratch");
      return false;
    }
  }
  try {
    vm_.machine.restore_state(snap.machine);
  } catch (const support::ApiError& e) {
    // Field layout diverged under matching identity hashes: live state may
    // be partially overwritten, so aborting beats silently running on.
    throw support::UcRuntimeError(
        std::string("--resume: snapshot no longer matches the machine "
                    "state rebuilt by prefix re-execution: ") +
        e.what());
  }
  for (const auto& [slot, v] : snap.global_scalars) {
    vm_.globals[slot].scalar = v;
  }
  for (const auto& [slot, v] : snap.frame_scalars) {
    frame->slots[slot].scalar = v;
  }
  k = 0;
  for (LaneSpace* s = space; s != nullptr; s = s->parent, ++k) {
    s->locals.clear();
    for (auto& [slot, vals] : snap.chain[k].locals) {
      s->locals[slot] = std::move(vals);
    }
  }
  vm_.output = std::move(snap.output);
  vm_.stmt_counter = snap.stmt_counter;
  vm_.fe_rng.seed(snap.fe_rng_state);
  vm_.machine.set_stats(snap.stats);
  // The plan epoch is SET (not bumped): the prefix evolved it identically
  // to the original run, and restored plan-cache entries are keyed under
  // the captured value.
  vm_.machine.fault_injector().set_rng_state(snap.injector_rng);
  vm_.plan_epoch_ = snap.plan_epoch;
  vm_.plan_cache_.clear();
  for (auto& pe : snap.plans) {
    cm::Plan plan;
    plan.charges = std::move(pe.charges);
    plan.hits = pe.hits;
    bool sites_ok = true;
    for (const auto& [id, optimized] : pe.annotations) {
      const void* site = vm_.node_by_id(id);
      if (site == nullptr) {
        sites_ok = false;
        break;
      }
      plan.annotations.push_back({site, optimized != 0});
    }
    // An unresolvable annotation site drops just that entry: the statement
    // re-records its plan on next execution, costing cycles-neutral extra
    // bookkeeping but never a wrong annotation.
    if (sites_ok) {
      vm_.plan_cache_.insert(pe.key, std::move(plan));
    } else {
      log(support::format("--resume: dropping one cached plan with an "
                          "unresolvable annotation site (key %llu)",
                          static_cast<unsigned long long>(pe.key)));
    }
  }
  vm_.ckpt->restore_durable_counters(
      snap.ckpt_stmt_seq, snap.ckpt_last_capture,
      vm_.opts.fresh_replay_budget ? 0 : snap.ckpt_replays);
  vm_.machine.note_resume();
  return true;
}

}  // namespace uc::vm::detail
