// Durable checkpoint files: header, atomic persistence, rotation and the
// resume scan (docs/ROBUSTNESS.md "Durable checkpoints & resume").
//
// File format, version 3.  Header (56 bytes, little-endian):
//
//   offset  size  field
//        0     8  magic "UCCKPT01"
//        8     4  format version (3)
//       12     8  program hash   (lang::CompilationUnit::identity)
//       20     8  options hash   (options_fingerprint)
//       28     8  capturing scope ordinal
//       36     8  generation number
//       44     8  payload size in bytes
//       52     4  payload CRC-32 (IEEE)
//
// followed by the payload: the in-memory checkpoint's bytes as they are
// (checkpoint.cpp).  The directory itself is the manifest: generations are
// recovered by listing ckpt-NNNNNNNN.uck, so there is no separate index
// file that a crash could leave inconsistent.
#include "ucvm/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"
#include "ucvm/checkpoint.hpp"
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
void write_file_atomic(const std::string& path, std::string_view header,
                       std::string_view payload) {
  const std::string tmp = path + ".tmp";
  auto fail = [&](const char* what) {
    throw support::UcRuntimeError(
        support::format("checkpoint-dir: cannot %s '%s': %s", what,
                        tmp.c_str(), std::strerror(errno)));
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("create");
  for (std::string_view bytes : {header, payload}) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(fd, bytes.data(), bytes.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        fail("write");
      }
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
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
      std::string bytes = read_file_bytes(path);
      if (bytes.size() < kHeaderSize) {
        throw SnapshotInvalid("truncated header (torn write)");
      }
      ByteReader head{std::string_view(bytes).substr(0, kHeaderSize)};
      if (head.u64() != kMagic) {
        throw SnapshotInvalid("not a UC checkpoint (bad magic)");
      }
      const std::uint32_t version = head.u32();
      if (version != kFormatVersion) {
        throw SnapshotInvalid(
            support::format("format version %u, expected %u", version,
                            kFormatVersion));
      }
      if (head.u64() != vm_.unit.identity) {
        throw SnapshotInvalid(
            "written by a different program (source or compile flags differ)");
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
      log(support::format("--resume: restoring generation %llu (scope "
                          "ordinal %llu) from %s",
                          static_cast<unsigned long long>(*it),
                          static_cast<unsigned long long>(ordinal),
                          path.c_str()));
      bytes.erase(0, kHeaderSize);
      pending_ = std::move(bytes);
      pending_ordinal_ = ordinal;
      return;
    } catch (const SnapshotInvalid& e) {
      log("checkpoint-dir: skipping " + path + ": " + e.what());
    }
  }
  log("--resume: no intact checkpoint found in '" + dir_ +
      "'; running from scratch");
}

std::string DurableCheckpoints::take_resume() {
  std::string payload = std::move(*pending_);
  pending_.reset();
  return payload;
}

void DurableCheckpoints::write(std::string_view payload,
                               std::uint64_t ordinal) {
  const std::uint64_t gen = next_generation_++;
  std::string header;
  ByteWriter out{header};
  out.u64(kMagic);
  out.u32(kFormatVersion);
  out.u64(vm_.unit.identity);
  out.u64(options_fingerprint(vm_));
  out.u64(ordinal);
  out.u64(gen);
  out.u64(payload.size());
  out.u32(support::crc32(payload.data(), payload.size()));
  write_file_atomic(generation_path(gen), header, payload);
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

}  // namespace uc::vm::detail
