// Native-tier backend suite (docs/VM.md "Native tier"): the on-disk
// compiled-kernel cache and its failure modes.  Engine-level output parity
// lives in engine_parity_test.cpp; here we pin the
// cache mechanics — a warm cache reuses the compiled .so without invoking
// the compiler, a corrupted or stale cached object is detected, discarded
// and rebuilt (never trusted), and a kernel the emitter declines runs on
// the bytecode tier with identical results and a visible fallback counter.
//
// Every test uses its own cache directory under the system temp path so
// runs start cold and cannot see another process's cache.  On a host
// without a working C++ toolchain the whole fixture skips: each scenario
// would degrade to bytecode and assert nothing about the cache.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

namespace fs = std::filesystem;

RunResult run_engine(const std::string& src, ExecEngine engine,
                     const std::string& cache_dir) {
  ExecOptions eopts;
  eopts.engine = engine;
  eopts.native_cache_dir = cache_dir;
  return run_uc(src, {}, eopts);
}

class NativeBackend : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("uc-native-test-" + std::to_string(::getpid()) + "-" +
            info->name());
    std::error_code ec;
    fs::remove_all(dir_, ec);
    if (!toolchain_available()) {
      GTEST_SKIP() << "no working native toolchain on this host; the "
                      "native tier falls back to bytecode (covered by the "
                      "parity suites)";
    }
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  RunResult run_native(const std::string& src) {
    return run_engine(src, ExecEngine::kNative, dir_.string());
  }

  // Probed once per process: compile-and-dispatch a trivial kernel into a
  // scratch cache directory.
  static bool toolchain_available() {
    static const bool ok = [] {
      const fs::path probe =
          fs::temp_directory_path() /
          ("uc-native-probe-" + std::to_string(::getpid()));
      const RunResult r = run_engine(
          "index_set I:i = {0..63};\nint a[64];\n"
          "void main() { par (I) a[i] = i + 1; }",
          ExecEngine::kNative, probe.string());
      std::error_code ec;
      fs::remove_all(probe, ec);
      return r.native_dispatches() > 0;
    }();
    return ok;
  }

  std::vector<fs::path> cached_objects() const {
    std::vector<fs::path> sos;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir_, ec)) {
      if (e.path().extension() == ".so") sos.push_back(e.path());
    }
    std::sort(sos.begin(), sos.end());
    return sos;
  }

  static void expect_same_run(const RunResult& a, const RunResult& b) {
    EXPECT_EQ(a.output(), b.output());
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
  }

  fs::path dir_;
};

// One parallel statement per lane space; the two spaces have different
// geometries, so fusion cannot merge them and the run produces (at least)
// two distinct kernels — and therefore two distinct cached objects.
const char* kTwoKernelSrc =
    "index_set I:i = {0..63};\n"
    "index_set J:j = {0..31};\n"
    "int a[64];\n"
    "int b[32];\n"
    "void main() {\n"
    "  par (I) a[i] = i * 3 + 1;\n"
    "  par (J) b[j] = j * j;\n"
    "}\n";

void expect_arrays_ab(const RunResult& r) {
  const auto a = r.global_array("a");
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].as_int(), static_cast<std::int64_t>(i) * 3 + 1) << i;
  }
  const auto b = r.global_array("b");
  ASSERT_EQ(b.size(), 32u);
  for (std::size_t j = 0; j < b.size(); ++j) {
    EXPECT_EQ(b[j].as_int(), static_cast<std::int64_t>(j * j)) << j;
  }
}

TEST_F(NativeBackend, WarmCacheReusesCompiledObjects) {
  const RunResult cold = run_native(kTwoKernelSrc);
  expect_arrays_ab(cold);
  ASSERT_GT(cold.native_dispatches(), 0u);
  EXPECT_GT(cold.native_kernels_compiled(), 0u);
  EXPECT_EQ(cold.native_cache_hits(), 0u);  // directory started empty
  const auto sos = cached_objects();
  EXPECT_EQ(sos.size(), cold.native_kernels_compiled());

  // A second process-equivalent run (fresh Interp, same cache directory)
  // must load every kernel from disk without invoking the compiler.
  const RunResult warm = run_native(kTwoKernelSrc);
  expect_arrays_ab(warm);
  EXPECT_EQ(warm.native_kernels_compiled(), 0u);
  EXPECT_EQ(warm.native_cache_hits(), cold.native_kernels_compiled());
  EXPECT_GT(warm.native_dispatches(), 0u);
  expect_same_run(cold, warm);
}

TEST_F(NativeBackend, CorruptedCachedObjectIsRebuilt) {
  const RunResult cold = run_native(kTwoKernelSrc);
  ASSERT_GT(cold.native_kernels_compiled(), 0u);
  const auto sos = cached_objects();
  ASSERT_FALSE(sos.empty());

  // Clobber every cached object: one truncated to zero bytes (torn
  // write), the rest overwritten with non-ELF garbage.
  for (std::size_t i = 0; i < sos.size(); ++i) {
    std::ofstream out(sos[i], std::ios::binary | std::ios::trunc);
    if (i > 0) out << "this is not a shared object";
  }

  const RunResult again = run_native(kTwoKernelSrc);
  expect_arrays_ab(again);
  expect_same_run(cold, again);
  // dlopen rejects the garbage, the entry is deleted and recompiled.
  EXPECT_EQ(again.native_cache_hits(), 0u);
  EXPECT_EQ(again.native_kernels_compiled(), cold.native_kernels_compiled());
  EXPECT_GT(again.native_dispatches(), 0u);
}

TEST_F(NativeBackend, StaleCachedObjectIsDetectedAndRebuilt) {
  const RunResult cold = run_native(kTwoKernelSrc);
  const auto sos = cached_objects();
  ASSERT_GE(sos.size(), 2u) << "expected two kernels for two lane spaces";

  // Simulate a stale entry: a loadable, well-formed shared object sitting
  // under the wrong file name (as if the hash scheme or emitter changed
  // but the file survived).  dlopen succeeds; the uc_native_info identity
  // check — embedded source hash vs the hash the name promises — must
  // catch it and trigger a rebuild.
  std::error_code ec;
  fs::copy_file(sos[0], sos[1], fs::copy_options::overwrite_existing, ec);
  ASSERT_FALSE(ec) << ec.message();

  const RunResult again = run_native(kTwoKernelSrc);
  expect_arrays_ab(again);
  expect_same_run(cold, again);
  EXPECT_GE(again.native_kernels_compiled(), 1u);  // the swapped one
  EXPECT_GE(again.native_cache_hits(), 1u);        // the intact one
  EXPECT_GT(again.native_dispatches(), 0u);
}

TEST_F(NativeBackend, EmitterDeclineFallsBackToBytecode) {
  // A store inside a reduction's tuple loop (nine tuples, too many to
  // unroll) gives a lane no bound on its writes; the emitter declines the
  // kernel, which then runs (correctly) on the bytecode tier.
  const std::string src =
      "index_set I:i = {0..31}, J:j = {0..8};\n"
      "int a[32], b[32];\n"
      "void main() { par (I) a[i] = $+(J; b[i] = i + 1) + i; }\n";

  const RunResult native = run_native(src);
  const RunResult reference =
      run_engine(src, ExecEngine::kBytecode, dir_.string());
  EXPECT_EQ(reference.output(), native.output());
  for (const char* name : {"a", "b"}) {
    const auto want = reference.global_array(name);
    const auto got = native.global_array(name);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(want[i] == got[i]) << name << "[" << i << "]";
    }
  }
  EXPECT_EQ(reference.stats(), native.stats());

  EXPECT_GT(native.native_fallbacks(), 0u);
  EXPECT_EQ(native.native_dispatches(), 0u);
  EXPECT_EQ(native.native_kernels_compiled(), 0u);
  EXPECT_TRUE(cached_objects().empty());  // nothing was ever emitted
}

TEST_F(NativeBackend, MixedTypeTernaryRunsNatively) {
  // The int arm converts to the ternary's float type (one kCoerce), so
  // every register has one static type and the kernel is emitted.
  const std::string src =
      "index_set I:i = {0..31};\n"
      "float a[32];\n"
      "void main() { par (I) a[i] = (i % 2 == 0) ? 1 : 2.5; }\n";

  const RunResult native = run_native(src);
  const RunResult reference =
      run_engine(src, ExecEngine::kBytecode, dir_.string());
  const auto want = reference.global_array("a");
  const auto got = native.global_array("a");
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(want[i] == got[i]) << "a[" << i << "]";
    EXPECT_TRUE(got[i] == Value::of_float(i % 2 == 0 ? 1.0 : 2.5));
  }
  EXPECT_EQ(reference.stats(), native.stats());
  EXPECT_GT(native.native_dispatches(), 0u);
  EXPECT_EQ(native.native_fallbacks(), 0u);
}

}  // namespace
}  // namespace uc::vm
