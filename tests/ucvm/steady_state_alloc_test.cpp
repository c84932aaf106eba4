// Steady-state allocation regression test (docs/VM.md "Linking and
// execution"): a round of seq or *solve must reuse the lane spaces, lane
// lists and value buffers of the round before, so the number of large heap
// allocations in a run does not grow with its number of rounds.
//
// This binary replaces the global operator new with one that counts blocks
// of 64 KiB or more.  At the 4096 lanes of the workloads below, the lane
// values, element bindings and coordinates a round would rebuild are at or
// above that size, while per-statement bookkeeping stays far below it (so
// the *solve grid is 64 x 64: at 32 x 32 no per-round buffer reaches it).
// Each workload runs once to warm the native kernel cache, then with R and
// with 2R rounds at the same lane count; the second count must not exceed
// the first.  The sc-block case counts blocks of 512 bytes or more: a
// per-round lane mask over its 4096 lanes takes 512 bytes.
//
// Two more tests count every allocation, whatever its size, while a
// kernel is linked again and again: the link keeps each lane-relative
// site's class in storage it reuses (docs/VM.md "Lane-relative sites"),
// and its unique-store proof keeps no storage at all.
//
// The sanitizers own operator new, so the binary is built only when
// UC_SANITIZE is empty.  The TSan lane covers the same two-thread reuse
// through EngineParity.SeqAndStarSolveRoundsOnTwoThreads instead.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "cm/machine.hpp"
#include "uclang/frontend.hpp"
#include "ucvm/interp.hpp"
#include "ucvm/interp_detail.hpp"
#include "ucvm/kernel/kernel.hpp"

namespace {

constexpr std::size_t kLargeBytes = 64 * 1024;
std::atomic<std::size_t> g_min_bytes{kLargeBytes};  // what counts as large
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_large{0};
std::atomic<bool> g_counting_all{false};
std::atomic<std::uint64_t> g_all{0};

}  // namespace

// The replacements stay out of line: inlined, GCC would see free() on a
// pointer that came from `new` and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (n >= g_min_bytes.load(std::memory_order_relaxed) &&
      g_counting.load(std::memory_order_relaxed)) {
    g_large.fetch_add(1, std::memory_order_relaxed);
  }
  if (g_counting_all.load(std::memory_order_relaxed)) {
    g_all.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace uc::vm {
namespace {

namespace fs = std::filesystem;

// Fig 6 all-pairs shortest path on n x n lanes (64 unless given); the seq
// runs `rounds` relaxation rounds (the k index wraps, so every round does
// real work).
std::string seq_par_source(int rounds, int n = 64) {
  return "#define N " + std::to_string(n) + "\n"
         "#define R " + std::to_string(rounds) + "\n"
         "index_set I:i = {0..N-1}, J:j = I, K:k = {0..R-1};\n"
         "int d[N][N];\n"
         "void main() {\n"
         "  par (I, J) st (i == j) d[i][j] = 0;\n"
         "    others d[i][j] = (i * 7 + j * 13) % 31 + 1;\n"
         "  seq (K)\n"
         "    par (I, J)\n"
         "      st (d[i][k % N] + d[k % N][j] < d[i][j])\n"
         "        d[i][j] = d[i][k % N] + d[k % N][j];\n"
         "  print(\"sum\", $+(I, J; d[i][j]));\n"
         "}\n";
}

// Fig 6's relaxation as two guarded blocks and an `others` arm, which
// counts per lane the rounds in which neither block enabled it.  The seq
// runs 64 rounds per sweep; the sweep set stays tiny, so its own storage
// is the same at every sweep count.
std::string seq_blocks_source(int sweeps) {
  return "#define N 64\n"
         "#define S " + std::to_string(sweeps) + "\n"
         "index_set I:i = {0..N-1}, J:j = I, K:k = I, L:l = {0..S-1};\n"
         "int d[N][N], idle[N][N];\n"
         "void main() {\n"
         "  par (I, J) d[i][j] = (i * 7 + j * 13) % 31 + 1;\n"
         "  seq (L, K)\n"
         "    par (I, J)\n"
         "      st (d[i][k] + d[k][j] < d[i][j]) d[i][j] = d[i][k] + d[k][j];\n"
         "      st (i == j && d[i][j] > 0) d[i][j] = 0;\n"
         "      others idle[i][j] = idle[i][j] + 1;\n"
         "  print(\"sum\", $+(I, J; d[i][j]), $+(I, J; idle[i][j]));\n"
         "}\n";
}

// Fig 8 grid shortest path by *solve on 64 x 64 lanes.  The round count is
// the farthest distance from the source: about 64 from the centre and 126
// from a corner, at the same lane count.
std::string star_solve_source(int src_row, int src_col) {
  const std::string at = "(i == " + std::to_string(src_row) +
                         " && j == " + std::to_string(src_col) + ")";
  return "#define N 64\n"
         "index_set I:i = {0..N-1}, J:j = I;\n"
         "index_set D:dir = {0..3};\n"
         "int d[N][N];\n"
         "void main() {\n"
         "  par (I, J) st " + at + " d[i][j] = 0; others d[i][j] = INF;\n"
         "  *solve (I, J)\n"
         "    st (!" + at + ")\n"
         "      d[i][j] = min(INF, 1 + $<(D\n"
         "        st (i + (dir==0) - (dir==1) >= 0 &&\n"
         "            i + (dir==0) - (dir==1) <= N-1 &&\n"
         "            j + (dir==2) - (dir==3) >= 0 &&\n"
         "            j + (dir==2) - (dir==3) <= N-1)\n"
         "          d[i + (dir==0) - (dir==1)][j + (dir==2) - (dir==3)]));\n"
         "  print(\"sum\", $+(I, J; d[i][j]));\n"
         "}\n";
}

RunResult run(const std::string& src, ExecEngine engine, unsigned threads,
              const fs::path& cache_dir, std::uint64_t checkpoint_every = 0) {
  cm::MachineOptions mopts;
  mopts.host_threads = threads;
  ExecOptions eopts;
  eopts.engine = engine;
  eopts.native_cache_dir = cache_dir.string();
  eopts.checkpoint_every = checkpoint_every;
  return run_uc(src, mopts, eopts);
}

std::uint64_t count_large(const std::string& src, ExecEngine engine,
                          unsigned threads, const fs::path& cache_dir,
                          std::uint64_t checkpoint_every) {
  g_large.store(0);
  g_counting.store(true);
  const RunResult r = run(src, engine, threads, cache_dir, checkpoint_every);
  g_counting.store(false);
  EXPECT_NE(r.output().find("sum "), std::string::npos) << r.output();
  return g_large.load();
}

class SteadyStateAlloc : public ::testing::Test {
 protected:
  void SetUp() override {
    g_min_bytes = kLargeBytes;
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("uc-alloc-test-" + std::to_string(::getpid()) + "-" +
            info->name());
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // Compiles and dispatches a trivial kernel once per process.
  static bool toolchain_available() {
    static const bool ok = [] {
      const fs::path probe = fs::temp_directory_path() /
                             ("uc-alloc-probe-" + std::to_string(::getpid()));
      const RunResult r = run(
          "index_set I:i = {0..63};\nint a[64];\n"
          "void main() { par (I) a[i] = i + 1; }",
          ExecEngine::kNative, 1, probe);
      std::error_code ec;
      fs::remove_all(probe, ec);
      return r.native_dispatches() > 0;
    }();
    return ok;
  }

  void skip_without_toolchain() {
    if (toolchain_available()) return;
    std::fprintf(stderr,
                 "NOTICE: SKIPPED native steady-state allocation checks: no "
                 "working C++ toolchain on this host\n");
    GTEST_SKIP() << "no working native toolchain on this host";
  }

  // `fewer` and `more` run the same lanes for about R and 2R rounds (R is
  // 64 here).  On one thread the counts must match exactly.  On two, each
  // worker's write arena grows to the most writes that worker buffered in
  // one statement, which depends on which chunks it happened to take, so
  // the two runs may end a few doublings apart.  A per-round allocation
  // would add at least R.  With `checkpoint_every` set, every capture
  // encodes into the payload buffer of the capture before it.
  void expect_flat(const std::string& fewer, const std::string& more,
                   ExecEngine engine, unsigned threads,
                   std::uint64_t checkpoint_every = 0) {
    // Warms the kernel cache.
    (void)run(fewer, engine, threads, dir_, checkpoint_every);
    const std::uint64_t a =
        count_large(fewer, engine, threads, dir_, checkpoint_every);
    const std::uint64_t b =
        count_large(more, engine, threads, dir_, checkpoint_every);
    std::printf("large allocations: %llu (R rounds), %llu (2R rounds)\n",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
    const std::uint64_t slack = threads > 1 ? 8 : 0;
    EXPECT_LE(b, a + slack)
        << "large allocations grow with the number of rounds";
  }

  fs::path dir_;
};

TEST_F(SteadyStateAlloc, SeqParBytecode) {
  expect_flat(seq_par_source(64), seq_par_source(128), ExecEngine::kBytecode,
              1);
}

TEST_F(SteadyStateAlloc, SeqParBytecodeTwoThreads) {
  expect_flat(seq_par_source(64), seq_par_source(128), ExecEngine::kBytecode,
              2);
}

// At 128 x 128 the captured machine image is 128 KiB, above kLargeBytes.
TEST_F(SteadyStateAlloc, SeqParBytecodeCheckpointed) {
  expect_flat(seq_par_source(64, 128), seq_par_source(128, 128),
              ExecEngine::kBytecode, 1, /*checkpoint_every=*/8);
}

// The 4096 lanes' block lane lists and the lanes `others` gets are leased
// storage.  A per-round mask of those lanes would take 512 bytes, so this
// test counts every block of that size or more.
TEST_F(SteadyStateAlloc, SeqBlocksWithOthersBytecode) {
  g_min_bytes = 512;
  expect_flat(seq_blocks_source(1), seq_blocks_source(2),
              ExecEngine::kBytecode, 1);
}

TEST_F(SteadyStateAlloc, StarSolveBytecode) {
  expect_flat(star_solve_source(32, 32), star_solve_source(0, 0),
              ExecEngine::kBytecode, 1);
}

TEST_F(SteadyStateAlloc, StarSolveBytecodeTwoThreads) {
  expect_flat(star_solve_source(32, 32), star_solve_source(0, 0),
              ExecEngine::kBytecode, 2);
}

TEST_F(SteadyStateAlloc, SeqParNative) {
  skip_without_toolchain();
  expect_flat(seq_par_source(64), seq_par_source(128), ExecEngine::kNative,
              1);
  expect_flat(seq_par_source(64), seq_par_source(128), ExecEngine::kNative,
              2);
  expect_flat(seq_par_source(64, 128), seq_par_source(128, 128),
              ExecEngine::kNative, 2, /*checkpoint_every=*/8);
}

TEST_F(SteadyStateAlloc, StarSolveNative) {
  skip_without_toolchain();
  expect_flat(star_solve_source(32, 32), star_solve_source(0, 0),
              ExecEngine::kNative, 1);
  expect_flat(star_solve_source(32, 32), star_solve_source(0, 0),
              ExecEngine::kNative, 2);
}

// The stencil sits in a function main never calls: the lane plan compiles
// it all the same, and its lanes never run, so no edge lane is out of range.
TEST(SteadyStateLink, LaneRelativeKernelRelinksWithoutAllocating) {
  auto unit = lang::compile(
      "link.uc",
      "#define N 64\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "float u[N][N], v[N][N];\n"
      "void sweep() {\n"
      "  par (I, J) v[i][j] = u[i-1][j] + u[i+1][j] + u[i][j-1] + u[i][j+1];\n"
      "}\n"
      "void main() {}\n");
  ASSERT_TRUE(unit->ok());
  const lang::UcConstructStmt* par = nullptr;
  for (const auto& item : unit->program->items) {
    if (item.func != nullptr && item.func->name == "sweep") {
      par = static_cast<const lang::UcConstructStmt*>(
          item.func->body->body.front().get());
    }
  }
  ASSERT_NE(par, nullptr);
  const lang::Expr& stmt =
      *static_cast<const lang::ExprStmt&>(*par->blocks.front().body).expr;

  cm::Machine machine;
  ExecOptions opts;
  opts.engine = ExecEngine::kBytecode;
  detail::Impl vm(*unit, machine, opts);
  vm.run();  // declares the arrays
  detail::LaneSpace space;
  vm.expand(space, vm.root, vm.root.all_lanes(), par->index_set_syms);
  const detail::kernel::Kernel* k = vm.lane_site(stmt, space).kernel;
  ASSERT_NE(k, nullptr);
  detail::kernel::Engine& engine = vm.kernel_engine();
  ASSERT_EQ(engine.prepare(k, space, nullptr), k);
  // Four NEWS reads and the local store.
  EXPECT_EQ(engine.static_sites(), 5u);

  g_all.store(0);
  g_counting_all.store(true);
  for (int round = 0; round < 100; ++round) {
    (void)engine.prepare(k, space, nullptr);
  }
  g_counting_all.store(false);
  EXPECT_EQ(g_all.load(), 0u);
  EXPECT_EQ(engine.static_sites(), 5u);
}

// The unique-store proof runs at every link (docs/VM.md "Linking and
// execution").  Here both puts, to two roots, use both axes once, so the
// proof walks its whole way, and it allocates nothing.
TEST(SteadyStateLink, UniqueStoreProofRelinksWithoutAllocating) {
  auto unit = lang::compile(
      "link.uc",
      "#define N 64\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "float u[N][N], v[N][N], w[N][N];\n"
      "void sweep() {\n"
      "  par (I, J) v[j][i] = (u[i][j] = w[i][j] + 1.0) * 2.0;\n"
      "}\n"
      "void main() {}\n");
  ASSERT_TRUE(unit->ok());
  const lang::UcConstructStmt* par = nullptr;
  for (const auto& item : unit->program->items) {
    if (item.func != nullptr && item.func->name == "sweep") {
      par = static_cast<const lang::UcConstructStmt*>(
          item.func->body->body.front().get());
    }
  }
  ASSERT_NE(par, nullptr);
  const lang::Expr& stmt =
      *static_cast<const lang::ExprStmt&>(*par->blocks.front().body).expr;

  cm::Machine machine;
  ExecOptions opts;
  opts.engine = ExecEngine::kBytecode;
  detail::Impl vm(*unit, machine, opts);
  vm.run();  // declares the arrays
  detail::LaneSpace space;
  vm.expand(space, vm.root, vm.root.all_lanes(), par->index_set_syms);
  const detail::kernel::Kernel* k = vm.lane_site(stmt, space).kernel;
  ASSERT_NE(k, nullptr);
  detail::kernel::Engine& engine = vm.kernel_engine();
  ASSERT_EQ(engine.prepare(k, space, nullptr), k);
  EXPECT_TRUE(engine.unique_stores());

  g_all.store(0);
  g_counting_all.store(true);
  for (int round = 0; round < 100; ++round) {
    (void)engine.prepare(k, space, nullptr);
  }
  g_counting_all.store(false);
  EXPECT_EQ(g_all.load(), 0u);
  EXPECT_TRUE(engine.unique_stores());
}

}  // namespace
}  // namespace uc::vm
