// Durable-checkpoint suite (docs/ROBUSTNESS.md "Durable checkpoints &
// resume"): snapshots written to a checkpoint directory must restore
// bit-identically in a fresh process, corrupt or version-skewed
// generations must be skipped with a sourced diagnostic (falling back to
// the next older intact one), and a snapshot from a different program or
// option set must never be applied.  True process death is exercised by
// tools/soak.sh and the CLI tests; here the same machinery runs in-process
// through `resume` on a second run.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cm/fault.hpp"
#include "corpus.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

// The Fig 6 shortest-path program at size n (seed 11).
std::string on2(std::int64_t n) {
  return corpus::source("fig6_shortest_path_on2", {{"N", n}});
}

cm::MachineOptions with_faults(const std::string& spec) {
  cm::MachineOptions m;
  m.faults = cm::parse_fault_spec(spec);
  return m;
}

ExecOptions with_engine(ExecEngine engine, std::uint64_t checkpoint_every) {
  ExecOptions e;
  e.engine = engine;
  e.checkpoint_every = checkpoint_every;
  return e;
}

struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/uc-durable-XXXXXX";
    path = ::mkdtemp(buf);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::vector<std::filesystem::path> generations(const std::string& dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& ent : std::filesystem::directory_iterator(dir)) {
    if (ent.path().extension() == ".uck") out.push_back(ent.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void patch_byte(const std::filesystem::path& path, std::uint64_t offset,
                unsigned char value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(value));
}

// Flips the final payload byte: the header parses, the CRC does not.
void corrupt_payload(const std::filesystem::path& path) {
  const auto size = std::filesystem::file_size(path);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(size - 1));
  const int c = f.get();
  f.seekp(static_cast<std::streamoff>(size - 1));
  f.put(static_cast<char>(c ^ 0xff));
}

bool logged(const std::vector<std::string>& logs, const std::string& what) {
  for (const auto& line : logs) {
    if (line.find(what) != std::string::npos) return true;
  }
  return false;
}

class DurableP : public ::testing::TestWithParam<ExecEngine> {};

// A completed run leaves rotating generations behind; a second run with
// `resume` restores the newest one mid-program and must still finish with
// the same output and the same modeled cycles (the snapshot carries the
// machine statistics, so the forward jump is cycle-neutral).
TEST_P(DurableP, ResumeRoundTripBitIdentical) {
  const std::string src = on2(8);
  TempDir dir;
  ExecOptions base = with_engine(GetParam(), 4);
  base.checkpoint_dir = dir.path;
  const RunResult first = run_uc(src, {}, base);
  EXPECT_GT(first.stats().durable_checkpoints, 0u);
  EXPECT_EQ(first.stats().resumes, 0u);
  ASSERT_FALSE(generations(dir.path).empty());

  std::vector<std::string> logs;
  ExecOptions res = base;
  res.resume = true;
  res.log = [&](const std::string& line) { logs.push_back(line); };
  const RunResult second = run_uc(src, {}, res);
  EXPECT_EQ(second.stats().resumes, 1u);
  EXPECT_TRUE(logged(logs, "restoring generation")) << "no restore logged";
  EXPECT_EQ(first.output(), second.output());
  EXPECT_EQ(first.stats().cycles, second.stats().cycles);
}

// Rotation keeps only `checkpoint_keep` generations on disk.
TEST_P(DurableP, RotationBoundsTheDirectory) {
  const std::string src = on2(8);
  TempDir dir;
  ExecOptions e = with_engine(GetParam(), 2);
  e.checkpoint_dir = dir.path;
  e.checkpoint_keep = 2;
  const RunResult run = run_uc(src, {}, e);
  EXPECT_GT(run.stats().durable_checkpoints, 2u);
  EXPECT_EQ(generations(dir.path).size(), 2u);
}

// A bit flip in the newest generation's payload fails the CRC; resume must
// fall back to the next older intact generation with a diagnostic naming
// the skipped file, and still finish bit-identically.
TEST_P(DurableP, CorruptNewestGenerationFallsBack) {
  const std::string src = on2(8);
  TempDir dir;
  ExecOptions base = with_engine(GetParam(), 2);
  base.checkpoint_dir = dir.path;
  const RunResult first = run_uc(src, {}, base);
  auto gens = generations(dir.path);
  ASSERT_GE(gens.size(), 2u) << "need at least two generations to fall back";
  corrupt_payload(gens.back());

  std::vector<std::string> logs;
  ExecOptions res = base;
  res.resume = true;
  res.log = [&](const std::string& line) { logs.push_back(line); };
  const RunResult second = run_uc(src, {}, res);
  EXPECT_TRUE(logged(logs, "skipping")) << "corrupt generation not skipped";
  EXPECT_TRUE(logged(logs, "checksum mismatch"));
  EXPECT_TRUE(logged(logs, "restoring generation"));
  EXPECT_EQ(second.stats().resumes, 1u);
  EXPECT_EQ(first.output(), second.output());
  EXPECT_EQ(first.stats().cycles, second.stats().cycles);
}

// A torn write (truncated tail, as left by a crash mid-write without the
// atomic rename) is detected by the payload-size check, not the CRC.
TEST_P(DurableP, TornTailFallsBack) {
  const std::string src = on2(8);
  TempDir dir;
  ExecOptions base = with_engine(GetParam(), 2);
  base.checkpoint_dir = dir.path;
  const RunResult first = run_uc(src, {}, base);
  auto gens = generations(dir.path);
  ASSERT_GE(gens.size(), 2u);
  std::filesystem::resize_file(gens.back(),
                               std::filesystem::file_size(gens.back()) - 9);

  std::vector<std::string> logs;
  ExecOptions res = base;
  res.resume = true;
  res.log = [&](const std::string& line) { logs.push_back(line); };
  const RunResult second = run_uc(src, {}, res);
  EXPECT_TRUE(logged(logs, "torn write")) << "truncated tail not diagnosed";
  EXPECT_TRUE(logged(logs, "restoring generation"));
  EXPECT_EQ(first.output(), second.output());
  EXPECT_EQ(first.stats().cycles, second.stats().cycles);
}

// An older or future format version is refused outright rather than
// misparsed: version 2 files fingerprint a statement-fusion option that
// version 3 dropped.  The version word sits at byte offset 8 of the header, outside
// the payload CRC, so a single-byte patch produces exactly a version-skewed
// file.
TEST(DurableCheckpoint, VersionSkewIsRefused) {
  const std::string src = on2(8);
  for (const unsigned version : {2u, 4u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    TempDir dir;
    ExecOptions base = with_engine(ExecEngine::kBytecode, 2);
    base.checkpoint_dir = dir.path;
    const RunResult first = run_uc(src, {}, base);
    auto gens = generations(dir.path);
    ASSERT_GE(gens.size(), 2u);
    patch_byte(gens.back(), 8, static_cast<unsigned char>(version));

    std::vector<std::string> logs;
    ExecOptions res = base;
    res.resume = true;
    res.log = [&](const std::string& line) { logs.push_back(line); };
    const RunResult second = run_uc(src, {}, res);
    EXPECT_TRUE(logged(logs, "format version " + std::to_string(version) +
                                 ", expected 3"))
        << "bad skew msg";
    EXPECT_TRUE(logged(logs, "restoring generation"));
    EXPECT_EQ(first.output(), second.output());
  }
}

// Snapshots are bound to the program: the compiled unit's identity hashes
// its source, so resuming program A's generations with program B rejects
// every one and B runs from scratch.  No caller supplies the identity.
TEST(DurableCheckpoint, WrongProgramHashRunsFromScratch) {
  TempDir dir;
  ExecOptions base = with_engine(ExecEngine::kBytecode, 4);
  base.checkpoint_dir = dir.path;
  run_uc(on2(8), {}, base);
  ASSERT_FALSE(generations(dir.path).empty());

  const std::string other = on2(6);
  std::vector<std::string> logs;
  ExecOptions res = base;
  res.resume = true;
  res.log = [&](const std::string& line) { logs.push_back(line); };
  const RunResult second = run_uc(other, {}, res);
  EXPECT_TRUE(logged(logs, "different program"));
  EXPECT_TRUE(logged(logs, "no intact checkpoint"));
  EXPECT_EQ(second.stats().resumes, 0u);
  EXPECT_EQ(run_uc(other, {}, with_engine(ExecEngine::kBytecode, 4)).output(),
            second.output());
}

// Same program, different execution options (here: the processor
// optimisation, which changes what a mid-run snapshot's prefix cost) —
// also rejected.
TEST(DurableCheckpoint, DifferentOptionsRunFromScratch) {
  const std::string src = on2(8);
  TempDir dir;
  ExecOptions base = with_engine(ExecEngine::kBytecode, 4);
  base.checkpoint_dir = dir.path;
  const RunResult first = run_uc(src, {}, base);
  ASSERT_FALSE(generations(dir.path).empty());

  std::vector<std::string> logs;
  ExecOptions res = base;
  res.resume = true;
  res.processor_optimization = !res.processor_optimization;
  res.log = [&](const std::string& line) { logs.push_back(line); };
  const RunResult second = run_uc(src, {}, res);
  EXPECT_TRUE(logged(logs, "different execution options"));
  EXPECT_EQ(second.stats().resumes, 0u);
  EXPECT_EQ(first.output(), second.output());
}

// Every generation corrupt: the fallback chain is exhausted, the run
// proceeds from scratch with a diagnostic, and the output is still right.
TEST(DurableCheckpoint, AllGenerationsCorruptRunsFromScratch) {
  const std::string src = on2(8);
  TempDir dir;
  ExecOptions base = with_engine(ExecEngine::kBytecode, 2);
  base.checkpoint_dir = dir.path;
  const RunResult first = run_uc(src, {}, base);
  auto gens = generations(dir.path);
  ASSERT_GE(gens.size(), 2u);
  for (const auto& g : gens) corrupt_payload(g);

  std::vector<std::string> logs;
  ExecOptions res = base;
  res.resume = true;
  res.log = [&](const std::string& line) { logs.push_back(line); };
  const RunResult second = run_uc(src, {}, res);
  EXPECT_TRUE(logged(logs, "no intact checkpoint"));
  EXPECT_EQ(second.stats().resumes, 0u);
  EXPECT_EQ(first.output(), second.output());
  EXPECT_EQ(first.stats().cycles, second.stats().cycles);
}

// Stray non-checkpoint files in the directory are ignored by the scan and
// never deleted by rotation.
TEST(DurableCheckpoint, StrayFilesSurviveAndAreIgnored) {
  const std::string src = on2(8);
  TempDir dir;
  const std::string stray = dir.path + "/notes.txt";
  { std::ofstream(stray) << "keep me\n"; }
  ExecOptions base = with_engine(ExecEngine::kBytecode, 2);
  base.checkpoint_dir = dir.path;
  base.checkpoint_keep = 1;
  run_uc(src, {}, base);
  EXPECT_TRUE(std::filesystem::exists(stray));
  ExecOptions res = base;
  res.resume = true;
  const RunResult second = run_uc(src, {}, res);
  EXPECT_EQ(second.stats().resumes, 1u);
  EXPECT_TRUE(std::filesystem::exists(stray));
}

// A checkpoint directory without a capture cadence can never write a
// snapshot; that is library misuse, reported eagerly.
TEST(DurableCheckpoint, DirWithoutCadenceIsApiError) {
  TempDir dir;
  ExecOptions e;
  e.checkpoint_dir = dir.path;
  e.checkpoint_every = 0;
  EXPECT_THROW(run_uc(on2(6), {}, e), support::ApiError);
}

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void put_le(std::string& bytes, std::size_t at, std::uint64_t v, int n) {
  for (int k = 0; k < n; ++k) bytes[at + k] = static_cast<char>(v >> (8 * k));
}

// A payload that passes the CRC but is not what the codec wrote must fail
// closed.  Two families, each rewritten into the one generation with the
// header's size and CRC recomputed: every truncation of the payload, and
// an all-ones 8-byte word at every offset.  Each resume either restores,
// logs a skip and runs from scratch, or throws UcRuntimeError; a crash, a
// sanitizer report or any other exception fails the test.
TEST(DurableCheckpoint, CrcValidGarbageFailsClosed) {
  const std::string src = on2(8);
  TempDir dir;
  ExecOptions base = with_engine(ExecEngine::kBytecode, 4);
  base.checkpoint_dir = dir.path;
  base.checkpoint_keep = 1;
  run_uc(src, {}, base);
  const auto gens = generations(dir.path);
  ASSERT_EQ(gens.size(), 1u);
  constexpr std::size_t kHeaderSize = 56;
  const std::string file = read_bytes(gens[0]);
  ASSERT_GT(file.size(), kHeaderSize);
  const std::string payload = file.substr(kHeaderSize);

  std::vector<std::string> logs;
  ExecOptions res = base;
  res.resume = true;
  res.log = [&](const std::string& line) { logs.push_back(line); };
  int restored = 0, skipped = 0, thrown = 0;
  auto resume_from = [&](const std::string& garbage) {
    std::string bytes = file.substr(0, kHeaderSize) + garbage;
    put_le(bytes, 44, garbage.size(), 8);
    put_le(bytes, 52, support::crc32(garbage.data(), garbage.size()), 4);
    std::filesystem::remove_all(dir.path);
    std::filesystem::create_directories(dir.path);
    std::ofstream(gens[0], std::ios::binary) << bytes;
    logs.clear();
    try {
      // Not `resumes`: the overwritten stats may hold any count.
      run_uc(src, {}, res);
      ++(logged(logs, "from scratch") ? skipped : restored);
    } catch (const support::UcRuntimeError&) {
      ++thrown;
    }
  };
  for (std::size_t n = 0; n < payload.size(); ++n) {
    resume_from(payload.substr(0, n));
  }
  for (std::size_t at = 0; at + 8 <= payload.size(); ++at) {
    std::string garbage = payload;
    garbage.replace(at, 8, 8, '\xff');
    resume_from(garbage);
  }
  std::printf("garbage resumes: %d restored, %d skipped, %d threw\n",
              restored, skipped, thrown);
  // Every truncation is rejected, and so are some overwrites.
  EXPECT_GT(skipped, static_cast<int>(payload.size()));
}

// An exhausted in-memory replay budget escalates as EscalatedFault — a
// distinct type, so a driver can tell "retry from disk might help" apart
// from timeouts and caps — and the durable generations survive the throw.
TEST(DurableCheckpoint, EscalationLeavesSnapshotsBehind) {
  TempDir dir;
  ExecOptions e = with_engine(ExecEngine::kWalk, 4);
  e.checkpoint_dir = dir.path;
  e.max_replays = 2;
  EXPECT_THROW(run_uc(on2(6), with_faults("memory:p=1,retries=2"), e),
               support::EscalatedFault);
  EXPECT_FALSE(generations(dir.path).empty());
}

// The ucc driver's recovery loop, in miniature: run with a tiny replay
// budget under injected faults; on escalation, resume from disk with a
// fresh budget (`fresh_replay_budget`).  Each attempt restarts from the
// newest snapshot, so the loop makes forward progress and must converge to
// the clean run's exact output.
TEST(DurableCheckpoint, RetryLoopWithFreshBudgetConverges) {
  const std::string src = on2(8);
  const RunResult clean =
      run_uc(src, {}, with_engine(ExecEngine::kWalk, 0));
  TempDir dir;
  // The schedule is deterministic, so this test either always passes or
  // always fails.  The tuning rule if a VM change ever shifts the fault
  // draws: the run needs >= 2 rollbacks in total (else the budget below is
  // never exhausted and the loop is vacuous), but no two faults inside one
  // capture window (one replay per attempt could then never reach the next
  // capture, and the loop would livelock — the situation the driver's
  // attempt cap exists for).  Adjust seed/p until both hold.
  const cm::MachineOptions faults =
      with_faults("memory:p=8e-3,retries=0,seed=1");
  ExecOptions e = with_engine(ExecEngine::kWalk, 1);
  e.checkpoint_dir = dir.path;
  e.max_replays = 1;
  bool done = false;
  int escalations = 0;
  std::string out;
  for (int attempt = 0; attempt < 30 && !done; ++attempt) {
    try {
      const RunResult r = run_uc(src, faults, e);
      out = r.output();
      done = true;
    } catch (const support::EscalatedFault&) {
      ++escalations;
      e.resume = true;
      e.fresh_replay_budget = true;
    }
  }
  ASSERT_TRUE(done) << "retry loop failed to converge in 30 attempts";
  EXPECT_GT(escalations, 0) << "budget was never exhausted; the loop is "
                               "vacuous — lower max_replays or raise p";
  EXPECT_EQ(clean.output(), out);
}

INSTANTIATE_TEST_SUITE_P(Engines, DurableP,
                         ::testing::Values(ExecEngine::kWalk,
                                           ExecEngine::kBytecode),
                         [](const auto& info) {
                           return info.param == ExecEngine::kWalk
                                      ? "walk"
                                      : "bytecode";
                         });

}  // namespace
}  // namespace uc::vm
