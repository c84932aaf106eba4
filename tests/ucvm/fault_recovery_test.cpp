// Differential fault-recovery suite (docs/ROBUSTNESS.md): the paper's
// figure programs must produce bit-identical results under injected
// transient faults with checkpointing enabled, in both execution engines.
// Detection is modeled as perfect, so faults may only cost cycles.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "cm/fault.hpp"
#include "corpus.hpp"
#include "support/error.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

// The Fig 6 / Fig 7 shortest-path programs at size n (seed 11).
std::string on2(std::int64_t n) {
  return corpus::source("fig6_shortest_path_on2", {{"N", n}});
}
std::string on3(std::int64_t n) {
  return corpus::source("fig7_shortest_path_on3",
                        {{"N", n}, {"LOGN", corpus::log2_ceil(n)}});
}

std::vector<std::int64_t> ints(const std::vector<Value>& vs) {
  std::vector<std::int64_t> out;
  for (const auto& v : vs) out.push_back(v.as_int());
  return out;
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

// Memory faults fire on every vector op (units = VP-set size), so even the
// small figure-sized workloads draw a healthy number of faults at p=1e-3.
constexpr const char* kFaultSpec =
    "memory:p=1e-3;router:p=1e-3;news:p=1e-3;reduce:p=1e-3,seed=7";

class FaultRecoveryP : public ::testing::TestWithParam<ExecEngine> {};

void expect_bit_identical_under_faults(const std::string& src,
                                       ExecEngine engine) {
  const RunResult clean = run_uc(src, {}, with_engine(engine, 0));
  const RunResult faulted =
      run_uc(src, with_faults(kFaultSpec), with_engine(engine, 8));
  EXPECT_GT(faulted.stats().faults, 0u) << "workload drew no faults; the "
                                           "differential is vacuous";
  EXPECT_GT(faulted.stats().checkpoints, 0u);
  EXPECT_EQ(clean.output(), faulted.output());
  EXPECT_EQ(ints(clean.global_array("d")), ints(faulted.global_array("d")));
  // Recovery costs cycles but never changes the logical instruction mix.
  EXPECT_EQ(clean.stats().vector_ops, faulted.stats().vector_ops);
  EXPECT_EQ(clean.stats().router_messages, faulted.stats().router_messages);
  EXPECT_GT(faulted.stats().cycles, clean.stats().cycles);
}

TEST_P(FaultRecoveryP, Fig6ShortestPathOn2BitIdentical) {
  expect_bit_identical_under_faults(on2(8), GetParam());
}

TEST_P(FaultRecoveryP, Fig7ShortestPathOn3BitIdentical) {
  expect_bit_identical_under_faults(on3(8), GetParam());
}

TEST_P(FaultRecoveryP, Fig8GridObstacleBitIdentical) {
  expect_bit_identical_under_faults(
      corpus::source("fig8_grid_obstacle", {{"R", 8}, {"C", 8}}), GetParam());
}

TEST_P(FaultRecoveryP, StarSolveRecoversUnderFaults) {
  expect_bit_identical_under_faults(
      corpus::source("shortest_path_star_solve", {{"N", 8}}), GetParam());
}

// retries=0 escalates every detected fault straight to TransientFault, so
// recovery must go through the VM replay path (statement retry or
// checkpoint restore) rather than instruction re-issue.
TEST_P(FaultRecoveryP, RollbackPathRecoversWithZeroRetries) {
  const std::string src = on3(8);
  const RunResult clean = run_uc(src, {}, with_engine(GetParam(), 0));
  const RunResult faulted =
      run_uc(src, with_faults("memory:p=2e-3,retries=0,seed=5"),
             with_engine(GetParam(), 4));
  EXPECT_GT(faulted.stats().faults, 0u);
  EXPECT_EQ(faulted.stats().retries, 0u);
  EXPECT_GT(faulted.stats().rollbacks, 0u);
  EXPECT_EQ(clean.output(), faulted.output());
  EXPECT_EQ(ints(clean.global_array("d")), ints(faulted.global_array("d")));
}

TEST_P(FaultRecoveryP, SameSeedSameScheduleAndStats) {
  const std::string src = on2(6);
  const RunResult a =
      run_uc(src, with_faults(kFaultSpec), with_engine(GetParam(), 8));
  const RunResult b =
      run_uc(src, with_faults(kFaultSpec), with_engine(GetParam(), 8));
  EXPECT_EQ(a.stats(), b.stats());
  EXPECT_EQ(a.output(), b.output());
}

TEST_P(FaultRecoveryP, CheckpointingAloneChangesNothingButCycles) {
  const std::string src = on3(6);
  const RunResult plain = run_uc(src, {}, with_engine(GetParam(), 0));
  const RunResult ckpt = run_uc(src, {}, with_engine(GetParam(), 4));
  EXPECT_GT(ckpt.stats().checkpoints, 0u);
  EXPECT_EQ(ckpt.stats().faults, 0u);
  EXPECT_EQ(plain.output(), ckpt.output());
  EXPECT_EQ(ints(plain.global_array("d")), ints(ckpt.global_array("d")));
  EXPECT_GT(ckpt.stats().cycles, plain.stats().cycles);
}

INSTANTIATE_TEST_SUITE_P(Engines, FaultRecoveryP,
                         ::testing::Values(ExecEngine::kWalk,
                                           ExecEngine::kBytecode),
                         [](const auto& info) {
                           return info.param == ExecEngine::kWalk
                                      ? "walk"
                                      : "bytecode";
                         });

// ---- faults + checkpoint + plan cache differential ----

// Locks in the checkpoint/epoch ordering fix: a rollback restores VM state
// recorded *before* a map-section remap, so any plan recorded under the
// later plan epoch must not replay after the restore.  Before the fix,
// restore rewound the plan epoch to the captured value, colliding with
// recipes recorded pre-capture under the same epoch number.  Runs at 1 and
// 4 host threads; 1024 lanes are enough to split across the pool.
TEST(FaultRecovery, MapRemapUnderFaultsMatchesCleanRun) {
  const auto src =
      corpus::source("shifted_sum", {{"N", 1024}, {"ROUNDS", 4}});
  ExecOptions clean_opts;
  clean_opts.engine = ExecEngine::kBytecode;
  ExecOptions faulty_opts = clean_opts;
  faulty_opts.checkpoint_every = 4;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cm::MachineOptions clean_m;
    clean_m.host_threads = threads;
    cm::MachineOptions faulty_m =
        with_faults("memory:p=5e-4;news:p=5e-4,seed=11,retries=1");
    faulty_m.host_threads = threads;
    const RunResult clean = run_uc(src, clean_m, clean_opts);
    const RunResult faulted = run_uc(src, faulty_m, faulty_opts);
    EXPECT_GT(faulted.stats().faults, 0u);
    EXPECT_GT(faulted.stats().checkpoints, 0u);
    EXPECT_EQ(clean.output(), faulted.output());
    EXPECT_EQ(ints(clean.global_array("a")), ints(faulted.global_array("a")));
    // Deterministic: the same faulted run replays bit-identically.
    const RunResult again = run_uc(src, faulty_m, faulty_opts);
    EXPECT_EQ(faulted.output(), again.output());
    EXPECT_EQ(faulted.stats(), again.stats());
  }
}

// A fault in a startup map section strikes before the top-level recovery
// scope has captured anything.  The remap's router charge retries like a
// statement, so the run still completes with the clean output.
TEST(FaultRecovery, StartupMapSectionFaultIsRetried) {
  const std::string src = corpus::source("copy_broadcast");
  for (const ExecEngine engine :
       {ExecEngine::kWalk, ExecEngine::kBytecode, ExecEngine::kNative}) {
    SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)));
    const RunResult clean = run_uc(src, {}, with_engine(engine, 0));
    const RunResult faulted =
        run_uc(src, with_faults("router:p=2e-3,seed=7,retries=1"),
               with_engine(engine, 8));
    EXPECT_GT(faulted.stats().rollbacks, 0u);
    EXPECT_EQ(clean.output(), faulted.output());
  }
}

// ---- unrecoverable faults ----

TEST(FaultRecovery, CertainFaultWithoutCheckpointingIsFatal) {
  try {
    run_uc(on2(6), with_faults("memory:p=1,retries=2"),
           with_engine(ExecEngine::kWalk, 0));
    FAIL() << "p=1 without checkpointing must be fatal";
  } catch (const support::UcRuntimeError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checkpointing is off"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--checkpoint-every"), std::string::npos) << msg;
  }
}

TEST(FaultRecovery, CertainFaultExhaustsReplayBudget) {
  ExecOptions e = with_engine(ExecEngine::kWalk, 4);
  e.max_replays = 5;
  try {
    run_uc(on2(6), with_faults("memory:p=1,retries=2"), e);
    FAIL() << "p=1 must exhaust the replay budget";
  } catch (const support::UcRuntimeError& e2) {
    const std::string msg = e2.what();
    EXPECT_NE(msg.find("replay budget exhausted"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--max-replays"), std::string::npos) << msg;
  }
}

// ---- resource guards ----

TEST(FaultRecovery, TimeoutWatchdogStopsRunawayLoops) {
  const std::string src =
      "void main() {\n"
      "  int i;\n"
      "  i = 0;\n"
      "  while (i < 2000000000) {\n"
      "    i = i + 1;\n"
      "  }\n"
      "}\n";
  ExecOptions e;
  e.timeout_seconds = 0.05;
  try {
    run_uc(src, {}, e);
    FAIL() << "watchdog should have fired";
  } catch (const support::UcRuntimeError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("--timeout"), std::string::npos) << msg;
  }
}

// A limit past steady_clock's range is no deadline: the conversion to a
// clock duration used to overflow and fire the watchdog at once.
TEST(FaultRecovery, HugeTimeoutRunsToCompletion) {
  for (const double secs : {1e300, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::max()}) {
    ExecOptions e;
    e.timeout_seconds = secs;
    const RunResult r = run_uc(corpus::source("hello"), {}, e);
    EXPECT_NE(r.output().find("sum of 1..100 = 5050"), std::string::npos)
        << secs;
  }
}

TEST(FaultRecovery, FieldMemoryCapNamesTheField) {
  const std::string src =
      "#define N 16384\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N];\n"
      "void main() {\n"
      "  par (I) {\n"
      "    a[i] = i;\n"
      "  }\n"
      "}\n";
  cm::MachineOptions m;
  m.max_field_bytes = 1 << 12;  // 4 KiB: far below one 16K-VP field
  try {
    run_uc(src, m, {});
    FAIL() << "allocation should exceed the cap";
  } catch (const support::UcRuntimeError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("--max-field-mb"), std::string::npos) << msg;
  }
}

TEST(FaultRecovery, IterationLimitMessageNamesTheKnob) {
  const std::string src =
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N];\n"
      "void main() {\n"
      "  *par (I) st (1) {\n"
      "    a[i] = a[i] + 1;\n"
      "  }\n"
      "}\n";
  ExecOptions e;
  e.max_iterations = 10;
  try {
    run_uc(src, {}, e);
    FAIL() << "the always-active *par must hit the iteration limit";
  } catch (const support::UcRuntimeError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("10"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--max-iterations"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace uc::vm
