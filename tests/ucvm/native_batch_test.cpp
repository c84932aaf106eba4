// Native-tier batch build (docs/VM.md "Native tier"): the first native
// dispatch of a run hands the backend every expanded-space kernel of the
// lane plan, and it builds the cache misses in one concurrent batch.
// Pinned here: the plan misses no kernel of the corpus (a cold run starts
// no toolchain process after its first batch, and a warm run compiles
// nothing), kernels with the same source share one object, and a missing
// or failing toolchain degrades to bytecode with one sourced notice and
// nothing left behind in the cache directory.
//
// Every test uses its own cache directory under the system temp path, so
// runs start cold.  The batch tests skip on a host without a working C++
// toolchain; the broken-toolchain test runs everywhere.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "uclang/frontend.hpp"
#include "ucvm/interp_detail.hpp"
#include "ucvm/kernel/kernel.hpp"

namespace uc::vm {
namespace {

namespace fs = std::filesystem;

// A run on the native engine, with the backend's batch count, the
// notices it logged and the fusion groups its lane plan compiled.
struct NativeRun {
  RunResult result;
  std::uint64_t batches = 0;
  std::vector<std::string> notices;
  std::size_t groups = 0;
};

NativeRun run_native(const std::string& src, const fs::path& cache_dir) {
  auto unit = lang::compile("program.uc", src);
  if (!unit->ok()) ADD_FAILURE() << unit->diags.render_all();
  cm::Machine machine;
  ExecOptions eopts;
  eopts.engine = ExecEngine::kNative;
  eopts.native_cache_dir = cache_dir.string();
  std::vector<std::string> notices;
  eopts.log = [&notices](const std::string& m) { notices.push_back(m); };
  detail::Impl vm(*unit, machine, eopts);
  NativeRun run{vm.run(), 0, std::move(notices)};
  if (const auto* nb = vm.kernel_engine().native_backend()) {
    run.batches = nb->compile_batches();
  }
  for (const auto& [body, segs] : vm.lane_plan_.bodies) {
    run.groups += static_cast<std::size_t>(std::ranges::count_if(
        segs, [](const auto& seg) { return seg.group.kernel != nullptr; }));
  }
  return run;
}

std::vector<fs::path> files_in(const fs::path& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) out.push_back(e.path());
  return out;
}

class NativeBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("uc-native-batch-" + std::to_string(::getpid()) + "-" +
            info->name());
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // Probed once per process: compile-and-dispatch a trivial kernel into a
  // scratch cache directory.
  static bool toolchain_available() {
    static const bool ok = [] {
      const fs::path probe =
          fs::temp_directory_path() /
          ("uc-native-batch-probe-" + std::to_string(::getpid()));
      const NativeRun r = run_native(
          "index_set I:i = {0..63};\nint a[64];\n"
          "void main() { par (I) a[i] = i + 1; }",
          probe);
      std::error_code ec;
      fs::remove_all(probe, ec);
      return r.result.native_dispatches() > 0;
    }();
    return ok;
  }

  fs::path dir_;
};

// Three lane statements in three constructs, plus a predicate: several
// kernels, so a broken toolchain fails a batch of more than one.
const char* kSeveralKernelsSrc =
    "index_set I:i = {0..63};\n"
    "index_set J:j = {0..31};\n"
    "int a[64];\n"
    "int b[32];\n"
    "void main() {\n"
    "  par (I) a[i] = i * 3 + 1;\n"
    "  par (J) st (j % 2 == 0) b[j] = j * j;\n"
    "  par (I) a[i] = a[i] + (i > 10);\n"
    "  print(a[63], b[30]);\n"
    "}\n";

TEST_F(NativeBatch, BrokenToolchainFallsBackWithOneSourcedNotice) {
  ExecOptions bytecode;
  bytecode.engine = ExecEngine::kBytecode;
  const RunResult want = run_uc(kSeveralKernelsSrc, {}, bytecode);

  const std::string missing = "/nonexistent/uc-native-cc";
  for (const std::string& cc : {missing, std::string("false")}) {
    SCOPED_TRACE(cc);
    std::error_code ec;
    fs::remove_all(dir_, ec);
    std::vector<std::string> notices;
    ExecOptions eopts;
    eopts.engine = ExecEngine::kNative;
    eopts.native_cache_dir = dir_.string();
    eopts.native_cc = cc;
    eopts.log = [&notices](const std::string& m) { notices.push_back(m); };
    const RunResult got = run_uc(kSeveralKernelsSrc, {}, eopts);

    EXPECT_EQ(want.output(), got.output());
    EXPECT_EQ(want.stats(), got.stats());
    EXPECT_EQ(got.native_dispatches(), 0u);
    EXPECT_EQ(got.native_kernels_compiled(), 0u);
    EXPECT_GT(got.native_fallbacks(), 0u);
    // One notice for the whole batch, quoting the command that failed.
    ASSERT_EQ(notices.size(), 1u);
    const std::string& n = notices[0];
    EXPECT_NE(n.find("cannot build lane kernels"), std::string::npos) << n;
    const auto command = n.find("command: " + cc + " ");
    EXPECT_NE(command, std::string::npos) << n;
    if (cc == missing) {
      // The shell's complaint follows the command and names the compiler.
      EXPECT_NE(n.find(cc, n.find('\n', command)), std::string::npos) << n;
    }
    // No object, source, partial object or stderr capture stays behind.
    EXPECT_TRUE(files_in(dir_).empty());
  }
}

// The plan holds every kernel a corpus program dispatches: a cold run
// builds them all in its first batch, and a warm run loads every object
// the cold run built.
TEST_F(NativeBatch, CorpusColdRunBuildsEveryKernelInOneBatch) {
  if (!toolchain_available()) GTEST_SKIP() << "no working native toolchain";
  int native_programs = 0;
  for (const fs::path& file : corpus::programs()) {
    SCOPED_TRACE(file.filename().string());
    const std::string src = corpus::read(file);
    const fs::path dir = dir_ / file.stem();
    const NativeRun cold = run_native(src, dir);
    if (cold.result.native_dispatches() == 0) continue;
    ++native_programs;
    EXPECT_EQ(cold.batches, 1u);
    EXPECT_TRUE(cold.notices.empty());
    EXPECT_GT(cold.result.native_kernels_compiled(), 0u);
    EXPECT_EQ(cold.result.native_cache_hits(), 0u);
    EXPECT_EQ(files_in(dir).size(), cold.result.native_kernels_compiled());

    const NativeRun warm = run_native(src, dir);
    EXPECT_EQ(warm.batches, 0u);
    EXPECT_EQ(warm.result.native_kernels_compiled(), 0u);
    EXPECT_EQ(warm.result.native_cache_hits(),
              cold.result.native_kernels_compiled());
    EXPECT_EQ(warm.result.native_dispatches(),
              cold.result.native_dispatches());
    EXPECT_EQ(cold.result.output(), warm.result.output());
    EXPECT_EQ(cold.result.stats(), warm.result.stats());
  }
  EXPECT_GE(native_programs, 10);
}

// One of every site the plan holds: initialisers, if/while/for
// conditions and steps, predicates and `others` arms, a seq under an
// expanding construct, *par, oneof, a construct in a function that main
// calls, a fusable pair under a seq that binds on the front end (planned,
// never native), and a fusable pair whose reductions need nine
// coordinates (the link's cap is eight), so the plan compiles neither the
// group nor its members and they run unfused, on the walk.  Every engine
// matches bytecode.
TEST_F(NativeBatch, PlanCoversEveryDispatchSite) {
  if (!toolchain_available()) GTEST_SKIP() << "no working native toolchain";
  const std::string src =
      "index_set I:i = {0..63};\n"
      "index_set K:k = {0..3};\n"
      "index_set P:p = {0..1}, Q:q = {0..1}, R:r = {0..1}, U:u = {0..1};\n"
      "index_set V:v = {0..1}, W:w = {0..1}, X:x = {0..1}, Y:y = {0..1};\n"
      "index_set Z:z = {0..1};\n"
      "int a[64];\n"
      "int b[64];\n"
      "int c[64];\n"
      "int s[4];\n"
      "void fill() { par (I) c[i] = i % 5; }\n"
      "void main() {\n"
      "  fill();\n"
      "  par (I) {\n"
      "    int t = i * 2;\n"
      "    if (t > 10) a[i] = t; else a[i] = 1;\n"
      "  }\n"
      "  par (I) {\n"
      "    int n = 0;\n"
      "    while (n < i % 4) n = n + 1;\n"
      "    b[i] = n;\n"
      "  }\n"
      "  par (I) {\n"
      "    int m = 0;\n"
      "    for (m = 0; m < 3; m += 1) c[i] = c[i] + m;\n"
      "  }\n"
      "  par (I) seq (K) a[i] = a[i] + k;\n"
      "  *par (I) st (a[i] > 40) a[i] = a[i] - 7;\n"
      "  oneof (I) st (i < 8) b[i] = 9; others b[i] = b[i] + 1;\n"
      "  seq (K) { s[k] = a[k] + k; c[k] = c[k] * 2; }\n"
      "  par (P, Q, R, U, V) {\n"
      "    a[p * 16 + q * 8 + r * 4 + u * 2 + v] = $+(W, X, Y, Z; w + x * p);\n"
      "    b[p * 16 + q * 8 + r * 4 + u * 2 + v] = $+(W, X, Y, Z; y * q + z);\n"
      "  }\n"
      "  print(a[63], b[5], b[40], c[7], s[3], a[31], b[6]);\n"
      "}\n";
  ExecOptions bytecode;
  bytecode.engine = ExecEngine::kBytecode;
  const RunResult want = run_uc(src, {}, bytecode);
  ExecOptions walk;
  walk.engine = ExecEngine::kWalk;
  const RunResult walked = run_uc(src, {}, walk);
  EXPECT_EQ(want.output(), walked.output());
  EXPECT_EQ(want.stats(), walked.stats());
  const NativeRun cold = run_native(src, dir_);
  EXPECT_EQ(want.output(), cold.result.output());
  EXPECT_EQ(want.stats(), cold.result.stats());
  EXPECT_GT(cold.result.native_dispatches(), 10u);
  EXPECT_EQ(cold.result.native_fallbacks(), 0u);
  EXPECT_EQ(cold.batches, 1u);
  EXPECT_EQ(cold.groups, 1u);
  EXPECT_TRUE(cold.notices.empty());
}

// A kernel whose link always declines is known from the index sets: the
// plan compiles none, so the batch builds only what dispatches.
TEST_F(NativeBatch, KernelsTheLinkDeclinesAreNotBuilt) {
  if (!toolchain_available()) GTEST_SKIP() << "no working native toolchain";
  const std::string src =
      "index_set I:i = {0..63};\n"
      "index_set P:p = {0..1}, Q:q = {0..1}, R:r = {0..1}, U:u = {0..1};\n"
      "index_set V:v = {0..1}, W:w = {0..1}, X:x = {0..1}, Y:y = {0..1};\n"
      "index_set Z:z = {0..1};\n"
      "int a[64], b[64];\n"
      "void main() {\n"
      "  par (P, Q, R, U, V) {\n"
      "    a[p * 16 + q * 8 + r * 4 + u * 2 + v] = $+(W, X, Y, Z; w + x * p);\n"
      "    b[p * 16 + q * 8 + r * 4 + u * 2 + v] = $+(W, X, Y, Z; y * q + z);\n"
      "  }\n"
      "  par (I) a[i] = a[i] + b[i];\n"
      "  print(a[31], a[5]);\n"
      "}\n";
  ExecOptions bytecode;
  bytecode.engine = ExecEngine::kBytecode;
  const RunResult want = run_uc(src, {}, bytecode);
  const NativeRun cold = run_native(src, dir_);
  EXPECT_EQ(want.output(), cold.result.output());
  EXPECT_EQ(want.stats(), cold.result.stats());
  EXPECT_EQ(cold.result.native_kernels_compiled(), 1u);
  EXPECT_EQ(cold.result.native_dispatches(), 1u);
  EXPECT_EQ(cold.result.native_fallbacks(), 0u);
  EXPECT_EQ(cold.groups, 0u);
}

TEST_F(NativeBatch, IdenticalStatementsShareOneObject) {
  if (!toolchain_available()) GTEST_SKIP() << "no working native toolchain";
  const std::string src =
      "index_set I:i = {0..63};\n"
      "int a[64];\n"
      "void main() {\n"
      "  par (I) a[i] = i * 3 + 1;\n"
      "  par (I) a[i] = i * 3 + 1;\n"
      "}\n";
  const NativeRun cold = run_native(src, dir_);
  EXPECT_EQ(cold.result.native_dispatches(), 2u);
  EXPECT_EQ(cold.result.native_kernels_compiled(), 1u);
  EXPECT_EQ(cold.batches, 1u);
  EXPECT_TRUE(cold.notices.empty());
  EXPECT_EQ(files_in(dir_).size(), 1u);

  const NativeRun warm = run_native(src, dir_);
  EXPECT_EQ(warm.result.native_dispatches(), 2u);
  EXPECT_EQ(warm.result.native_kernels_compiled(), 0u);
  EXPECT_EQ(warm.result.native_cache_hits(), 1u);
}

}  // namespace
}  // namespace uc::vm
