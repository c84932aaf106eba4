// White-box test of the commit's per-array conflict marks (docs/VM.md
// "Linking and execution").  A mark is live only while its stamp equals
// its array's current stamp, so the stamp wrapping around must not revive
// a mark left by an earlier commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "support/error.hpp"
#include "uclang/frontend.hpp"
#include "ucvm/interp_detail.hpp"

namespace uc::vm::detail {
namespace {

Write int_write(ArrayObj& arr, std::int64_t flat, std::int64_t v) {
  Write w;
  w.target.kind = WriteTarget::Kind::kArray;
  w.target.obj = &arr;
  w.target.index = flat;
  w.value = Value::of_int(v);
  return w;
}

TEST(CommitMarks, SurviveStampWraparound) {
  auto unit = lang::compile("t.uc", "void main() {}");
  ASSERT_TRUE(unit->ok());
  cm::Machine machine;
  Impl vm(*unit, machine, ExecOptions{});
  ArrayObj arr(machine, "a", lang::ScalarKind::kInt, {4});
  const auto commit = [&vm](const std::vector<Write>& writes) {
    const WriteRun run(writes);
    vm.commit(std::span<const WriteRun>(&run, 1), /*unique=*/false);
  };

  // The first commit allocates the column and marks a[3] at stamp 1.  Its
  // writes stay alive, so a revived mark would compare against value 7
  // and report a conflict instead of reading freed memory.
  const std::vector<Write> first = {int_write(arr, 3, 7)};
  commit(first);
  ASSERT_EQ(arr.write_marks().stamp, 1u);

  // Two commits up to the largest stamp, then one that wraps back to 1,
  // the stamp a[3]'s mark still carries.
  arr.write_marks().stamp = std::numeric_limits<std::uint32_t>::max() - 2;
  commit({int_write(arr, 0, 1)});
  commit({int_write(arr, 0, 2)});
  ASSERT_EQ(arr.write_marks().stamp, std::numeric_limits<std::uint32_t>::max());
  EXPECT_NO_THROW(commit({int_write(arr, 3, 8), int_write(arr, 0, 3),
                          int_write(arr, 0, 3)}));
  EXPECT_EQ(arr.write_marks().stamp, 1u);
  EXPECT_EQ(arr.load(3).as_int(), 8);
  EXPECT_EQ(arr.load(0).as_int(), 3);

  // After the wrap a real conflict is still caught.
  try {
    commit({int_write(arr, 1, 1), int_write(arr, 1, 2)});
    ADD_FAILURE() << "conflict not reported";
  } catch (const support::UcRuntimeError& e) {
    EXPECT_EQ(std::string(e.what()),
              "conflicting parallel assignment to a[1]: values 1 and 2 "
              "(each variable may be assigned at most one value, paper "
              "§3.4)");
  }
}

// A lane that writes two arrays in turn finds each array's commit entry
// through its marks.  A conflict in the second array is still reported at
// its first-seen value, and nothing is applied.
TEST(CommitMarks, ConflictInTheSecondOfTwoAlternatingArrays) {
  auto unit = lang::compile("t.uc", "void main() {}");
  ASSERT_TRUE(unit->ok());
  cm::Machine machine;
  Impl vm(*unit, machine, ExecOptions{});
  ArrayObj a(machine, "a", lang::ScalarKind::kInt, {4});
  ArrayObj b(machine, "b", lang::ScalarKind::kInt, {4});
  const std::vector<Write> lane0 = {int_write(a, 0, 1), int_write(b, 0, 1)};
  const std::vector<Write> lane1 = {int_write(a, 1, 2), int_write(b, 1, 2)};
  const std::vector<Write> lane2 = {int_write(a, 2, 3), int_write(b, 0, 5),
                                    int_write(a, 3, 4), int_write(b, 0, 6)};
  const WriteRun runs[] = {WriteRun(lane0), WriteRun(lane1), WriteRun(lane2)};
  try {
    vm.commit(runs, /*unique=*/false);
    ADD_FAILURE() << "conflict not reported";
  } catch (const support::UcRuntimeError& e) {
    EXPECT_EQ(std::string(e.what()),
              "conflicting parallel assignment to b[0]: values 1 and 5 "
              "(each variable may be assigned at most one value, paper "
              "§3.4)");
  }
  for (std::int64_t e = 0; e < 4; ++e) {
    EXPECT_EQ(a.load(e).as_int(), 0) << e;
    EXPECT_EQ(b.load(e).as_int(), 0) << e;
  }

  // Without the conflict both arrays commit, in lane order.
  const std::vector<Write> ok = {int_write(a, 0, 1), int_write(b, 0, 1),
                                 int_write(a, 1, 2), int_write(b, 1, 2),
                                 int_write(a, 1, 2), int_write(b, 3, 7)};
  const WriteRun run(ok);
  vm.commit(std::span<const WriteRun>(&run, 1), /*unique=*/false);
  EXPECT_EQ(a.load(1).as_int(), 2);
  EXPECT_EQ(b.load(1).as_int(), 2);
  EXPECT_EQ(b.load(3).as_int(), 7);
}

// A commit whose writes the link proved unique skips the conflict pass:
// its apply pass opens each array's entry itself and still refuses an
// element past the root's end.
TEST(CommitMarks, UniqueCommitOpensEntriesAndChecksTheRange) {
  auto unit = lang::compile("t.uc", "void main() {}");
  ASSERT_TRUE(unit->ok());
  cm::Machine machine;
  Impl vm(*unit, machine, ExecOptions{});
  ArrayObj a(machine, "a", lang::ScalarKind::kInt, {4});
  ArrayObj b(machine, "b", lang::ScalarKind::kFloat, {4});
  const std::vector<Write> lanes = {int_write(a, 0, 5), int_write(b, 0, 1),
                                    int_write(a, 2, 6), int_write(b, 3, 2)};
  const WriteRun run(lanes);
  vm.commit(std::span<const WriteRun>(&run, 1), /*unique=*/true);
  EXPECT_EQ(a.load(0).as_int(), 5);
  EXPECT_EQ(a.load(2).as_int(), 6);
  EXPECT_EQ(b.load(3).as_float(), 2.0);

  const std::vector<Write> past = {int_write(a, 4, 1)};
  const WriteRun bad(past);
  EXPECT_THROW(vm.commit(std::span<const WriteRun>(&bad, 1), /*unique=*/true),
               support::ApiError);
}

}  // namespace
}  // namespace uc::vm::detail
