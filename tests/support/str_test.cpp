#include "support/str.hpp"

#include <gtest/gtest.h>

namespace uc::support {
namespace {

TEST(Str, SplitLinesBasic) {
  auto v = split_lines("a\nb\nc");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[2], "c");
}

TEST(Str, SplitLinesTrailingNewline) {
  auto v = split_lines("a\n");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], "");
}

TEST(Str, SplitLinesEmpty) {
  auto v = split_lines("");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "");
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(starts_with("index_set", "index"));
  EXPECT_FALSE(starts_with("idx", "index"));
}

TEST(Str, Format) {
  EXPECT_EQ(format("N=%d f=%.1f", 3, 2.5), "N=3 f=2.5");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(Str, CountCodeLinesSkipsBlanksAndComments) {
  const char* src =
      "int a;\n"
      "\n"
      "// comment only\n"
      "/* block\n"
      "   still block */\n"
      "int b; // trailing\n"
      "  /* inline */ int c;\n";
  EXPECT_EQ(count_code_lines(src), 3u);
}

TEST(Str, CountCodeLinesBlockCommentWithCodeBefore) {
  EXPECT_EQ(count_code_lines("int a; /* x\ny */ int b;\n"), 2u);
}

TEST(Str, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("l1\nl2\tx"), "l1\\nl2\\tx");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape(std::string_view("nul\0end", 7)), "nul\\u0000end");
  // UTF-8 multi-byte sequences pass through unchanged.
  EXPECT_EQ(json_escape("caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x98\x80"),
            "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x98\x80");
}

}  // namespace
}  // namespace uc::support
