// Golden tests over the shipped .uc sample programs: every program in
// programs/ must compile, and those with a sibling .expected file must
// print exactly that output.  The suite doubles as an end-user contract:
// anything in programs/ is guaranteed runnable.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "corpus.hpp"
#include "uc/uc.hpp"

namespace uc {
namespace {

namespace fs = std::filesystem;

class GoldenP : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenP, CompilesAndMatchesExpectedOutput) {
  const fs::path path = GetParam();
  auto program = Program::compile(path.filename().string(), corpus::read(path));

  // Every program must also round-trip through the pretty printer.
  auto again = Program::compile("roundtrip.uc", program.to_uc_source());

  fs::path expected = path;
  expected.replace_extension(".expected");
  if (!fs::exists(expected)) {
    // No golden output: running without a crash is the contract.
    (void)program.run();
    return;
  }
  auto result = program.run();
  auto result2 = again.run();
  EXPECT_EQ(result.output(), corpus::read(expected)) << path;
  EXPECT_EQ(result2.output(), result.output()) << "round-trip divergence";
}

std::vector<std::string> program_names() {
  std::vector<std::string> names;
  for (const auto& p : corpus::programs()) names.push_back(p.string());
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    All, GoldenP, ::testing::ValuesIn(program_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      auto name = fs::path(info.param).stem().string();
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Golden, SuiteIsNonEmpty) {
  EXPECT_GE(corpus::programs().size(), 8u);
}

// --- corpus::source overrides ---

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(Corpus, OverrideReplacesExactlyTheNamedDefines) {
  const auto base = lines(corpus::source("fig7_shortest_path_on3"));
  const auto sized = lines(corpus::source("fig7_shortest_path_on3",
                                          {{"N", 24}, {"LOGN", "5"}}));
  ASSERT_EQ(base.size(), sized.size());
  std::vector<std::string> changed;
  for (std::size_t k = 0; k < base.size(); ++k) {
    if (base[k] != sized[k]) changed.push_back(sized[k]);
  }
  EXPECT_EQ(changed,
            (std::vector<std::string>{"#define N 24", "#define LOGN 5"}));
}

TEST(Corpus, OverrideMatchesTheWholeName) {
  EXPECT_EQ(corpus::define("#define NN 1\n#define N 2\n", {"N", 7}),
            "#define NN 1\n#define N 7\n");
}

TEST(Corpus, OverrideOfAnUndefinedNameThrows) {
  EXPECT_THROW(corpus::source("fig6_shortest_path_on2", {{"LOGN", 4}}),
               std::invalid_argument);
  EXPECT_THROW(corpus::source("hello", {{"N", 4}}), std::invalid_argument);
}

}  // namespace
}  // namespace uc
