// Golden snapshot tests for the ucc static-analysis CLI: `ucc analyze`
// and `ucc optimize-map` output is captured over the full programs/
// corpus and compared byte-for-byte against checked-in goldens.
//
// The commands run with the programs directory as the working directory,
// so diagnostics carry relative paths and the goldens are stable across
// checkouts.  Regenerate after an intentional output change with:
//
//   UC_UPDATE_GOLDENS=1 ./build/tests/snapshots/test_snapshots
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "corpus.hpp"

namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CommandResult run_command(const std::string& cmd) {
  CommandResult result;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buf;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string ucc() { return UCC_BINARY; }

// Runs ucc from inside programs/, so file names in the output stay
// relative.
CommandResult run_in_programs(const std::string& args) {
  return run_command("cd " + corpus::dir().string() + " && " + ucc() +
                     " " + args);
}

bool updating() { return std::getenv("UC_UPDATE_GOLDENS") != nullptr; }

void check_snapshot(const std::string& snapshot_name,
                    const std::string& actual) {
  const fs::path golden = fs::path(SNAPSHOT_GOLDEN_DIR) / snapshot_name;
  if (updating()) {
    std::ofstream out(golden, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(out)) << "cannot write " << golden;
    out << actual;
    return;
  }
  ASSERT_TRUE(fs::exists(golden))
      << golden << " missing; run with UC_UPDATE_GOLDENS=1 to create it";
  EXPECT_EQ(actual, corpus::read(golden))
      << "snapshot drift in " << snapshot_name
      << "; rerun with UC_UPDATE_GOLDENS=1 if the change is intentional";
}

std::vector<std::string> corpus() {
  std::vector<std::string> names;
  for (const auto& p : corpus::programs()) {
    names.push_back(p.filename().string());
  }
  return names;
}

class SnapshotP : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotP, AnalyzeOutputMatchesGolden) {
  const std::string name = GetParam();
  auto r = run_in_programs("analyze " + name);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  check_snapshot(fs::path(name).stem().string() + ".analyze.txt", r.output);
}

TEST_P(SnapshotP, OptimizeMapOutputMatchesGolden) {
  const std::string name = GetParam();
  auto r = run_in_programs("optimize-map " + name);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  check_snapshot(fs::path(name).stem().string() + ".optmap.txt", r.output);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SnapshotP, ::testing::ValuesIn(corpus()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      auto name = fs::path(info.param).stem().string();
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Snapshot, CorpusIsNonEmpty) { EXPECT_GE(corpus().size(), 8u); }

// --- fail-closed negatives -----------------------------------------------

// A shift permute would collide two elements on one processor while a
// parallel step writes both: the dependence pass must reject it, and
// optimize-map must never emit an illegal mapping — here nothing legal
// improves the program either, so it keeps the current mappings.
TEST(Snapshot, IllegalShiftPermuteIsRejectedFailClosed) {
  const std::string path = "/tmp/uc_snapshot_illegal_shift.uc";
  {
    std::ofstream out(path);
    out << "const int N = 8;\n"
           "index_set I:i = {0..N-1};\n"
           "int a[N], b[N];\n"
           "void main() {\n"
           "  par (I) a[i] = i;\n"
           "  par (I) st (i < N-1) b[i] = a[i+1];\n"
           "  print(\"b[0] = %d\\n\", b[0]);\n"
           "}\n";
  }
  auto r = run_command(ucc() + " optimize-map " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("chosen: permute"), std::string::npos)
      << "illegal shift permute escaped fail-closed rejection:\n"
      << r.output;
  EXPECT_NE(r.output.find("keep current mappings"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

// Write-write interference across a fold: optimize-map must list the fold
// as blocked by the dependence and never choose it.
TEST(Snapshot, BlockedFoldIsListedAsBlockedNotChosen) {
  const std::string path = "/tmp/uc_snapshot_blocked_fold.uc";
  {
    std::ofstream out(path);
    out << "const int N = 8;\n"
           "index_set I:i = {0..N-1}, H:h = {0..N/2-1}, T:t = {0..31};\n"
           "int a[N], out[N/2];\n"
           "void main() {\n"
           "  par (H) { a[h] = h; a[N-1-h] = h + 1; }\n"
           "  seq (T) {\n"
           "    par (H) out[h] = out[h] + a[N-1-h];\n"
           "  }\n"
           "  print(\"out[0] = %d\\n\", out[0]);\n"
           "}\n";
  }
  auto opt = run_command(ucc() + " optimize-map " + path);
  EXPECT_EQ(opt.exit_code, 0) << opt.output;
  EXPECT_NE(opt.output.find("a: fold (H) a[7-h] :- a[h]: blocked by a "
                            "dependence"),
            std::string::npos)
      << opt.output;
  EXPECT_EQ(opt.output.find("chosen: fold"), std::string::npos)
      << "blocked fold escaped fail-closed rejection:\n"
      << opt.output;
  std::remove(path.c_str());
}

// --emit on a program with no improving mapping must fail loudly instead
// of writing a file that silently equals the input.
TEST(Snapshot, EmitWithoutImprovementFails) {
  const std::string path = "/tmp/uc_snapshot_tiny.uc";
  {
    std::ofstream out(path);
    out << "const int N = 4;\n"
           "index_set I:i = {0..N-1};\n"
           "int a[N];\n"
           "void main() {\n"
           "  par (I) a[i] = i;\n"
           "}\n";
  }
  auto r = run_command(ucc() + " optimize-map " + path +
                       " --emit=/tmp/uc_snapshot_tiny_opt.uc");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("nothing to emit"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

// The emitted rewrite of fig6 must run standalone, reproduce the golden
// output, and beat the original program's modeled cycles.
TEST(Snapshot, EmittedFig6RunsFasterWithIdenticalOutput) {
  const std::string opt_path = "/tmp/uc_snapshot_fig6_opt.uc";
  auto emit = run_in_programs("optimize-map fig6_shortest_path_on2.uc "
                              "--emit=" +
                              opt_path);
  ASSERT_EQ(emit.exit_code, 0) << emit.output;

  auto base = run_in_programs("run fig6_shortest_path_on2.uc --stats");
  auto opt = run_command(ucc() + " run " + opt_path + " --stats");
  ASSERT_EQ(base.exit_code, 0) << base.output;
  ASSERT_EQ(opt.exit_code, 0) << opt.output;

  // Same program output (the --stats line differs by design).
  EXPECT_NE(base.output.find("d[0][N-1] = 4"), std::string::npos);
  EXPECT_NE(opt.output.find("d[0][N-1] = 4"), std::string::npos);

  auto cycles_of = [](const std::string& out) -> long long {
    auto pos = out.find("cycles=");
    if (pos == std::string::npos) return -1;
    return std::atoll(out.c_str() + pos + 7);
  };
  const long long base_cycles = cycles_of(base.output);
  const long long opt_cycles = cycles_of(opt.output);
  ASSERT_GT(base_cycles, 0);
  ASSERT_GT(opt_cycles, 0);
  EXPECT_LT(opt_cycles, base_cycles);
}

}  // namespace
