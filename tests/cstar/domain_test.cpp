#include "cstar/domain.hpp"

#include <gtest/gtest.h>

namespace uc::cstar {
namespace {

struct DomainFixture : ::testing::Test {
  cm::Machine machine;
  Domain dom{machine, "D", {4, 4}};
  FieldHandle v = dom.add_field("v");
};

TEST_F(DomainFixture, ParallelSetAndCoordinates) {
  dom.parallel(2, [&](Elem& e) { e.set(v, 10 * e.at(0) + e.at(1)); });
  EXPECT_EQ(dom.read(v, {2, 3}), 23);
  EXPECT_EQ(dom.read(v, {0, 0}), 0);
}

TEST_F(DomainFixture, ReadsSeePreStatementState) {
  dom.parallel(1, [&](Elem& e) { e.set(v, e.at(0) * 4 + e.at(1)); });
  // Shift: v(i,j) = old v(i, j+1) for j<3.
  dom.parallel(2, [&](Elem& e) {
    if (e.at(1) < 3) e.set(v, e.get(v, {e.at(0), e.at(1) + 1}));
  });
  EXPECT_EQ(dom.read(v, {1, 0}), 5);  // old v(1,1)
  EXPECT_EQ(dom.read(v, {1, 2}), 7);  // old v(1,3)
  EXPECT_EQ(dom.read(v, {1, 3}), 7);  // untouched
}

TEST_F(DomainFixture, MinMaxAssign) {
  dom.parallel(1, [&](Elem& e) { e.set(v, 10); });
  dom.parallel(1, [&](Elem& e) {
    e.min_assign(v, e.at(0) == 0 ? 3 : 15);
    e.max_assign(v, e.at(0) == 3 ? 99 : 0);
  });
  EXPECT_EQ(dom.read(v, {0, 0}), 3);
  EXPECT_EQ(dom.read(v, {1, 1}), 10);
  EXPECT_EQ(dom.read(v, {3, 2}), 99);
}

TEST_F(DomainFixture, SendAddCombines) {
  dom.parallel(1, [&](Elem& e) { e.set(v, 0); });
  // Every instance sends +1 to (0,0): a router combine.
  dom.parallel(1, [&](Elem& e) { e.send_add(v, {0, 0}, 1); });
  EXPECT_EQ(dom.read(v, {0, 0}), 16);
}

TEST_F(DomainFixture, WhereNarrowsContext) {
  dom.parallel(1, [&](Elem& e) { e.set(v, e.at(0)); });
  dom.where([&](Elem& e) { return e.self(v) >= 2; },
            [&] { dom.parallel(1, [&](Elem& e) { e.set(v, 100); }); });
  EXPECT_EQ(dom.read(v, {0, 0}), 0);
  EXPECT_EQ(dom.read(v, {1, 0}), 1);
  EXPECT_EQ(dom.read(v, {2, 0}), 100);
  EXPECT_EQ(dom.read(v, {3, 3}), 100);
}

TEST_F(DomainFixture, ReduceOverActiveInstances) {
  dom.parallel(1, [&](Elem& e) { e.set(v, 1); });
  EXPECT_EQ(dom.reduce(v, cm::ReduceOp::kAdd), 16);
}

TEST_F(DomainFixture, LocalAccessChargesNoRouter) {
  machine.reset_stats();
  dom.parallel(1, [&](Elem& e) { e.set(v, e.self(v) + 1); });
  EXPECT_EQ(machine.stats().router_ops, 0u);
  EXPECT_EQ(machine.stats().news_ops, 0u);
}

TEST_F(DomainFixture, NeighborAccessChargesNews) {
  machine.reset_stats();
  dom.parallel(1, [&](Elem& e) {
    if (e.at(1) < 3) e.set(v, e.get(v, {e.at(0), e.at(1) + 1}));
  });
  EXPECT_GT(machine.stats().news_ops, 0u);
  EXPECT_EQ(machine.stats().router_ops, 0u);
}

TEST_F(DomainFixture, TransposeAccessChargesRouter) {
  machine.reset_stats();
  dom.parallel(1, [&](Elem& e) {
    e.set(v, e.get(v, {e.at(1), e.at(0)}) + 1);
  });
  EXPECT_GT(machine.stats().router_messages, 0u);
}

// The C* reference classifies with the VM's rule: a NEWS hop that costs
// more than a router delivery routes.
TEST(CstarAccess, OneHopRoutesWhenNewsCostsMoreThanTheRouter) {
  cm::MachineOptions mopts;
  mopts.cost.news_op = 700;
  mopts.cost.router_op = 600;
  cm::Machine machine(mopts);
  Domain dom(machine, "D", {4, 4});
  const FieldHandle v = dom.add_field("v");
  dom.parallel(1, [&](Elem& e) {
    if (e.at(1) < 3) e.set(v, e.get(v, {e.at(0), e.at(1) + 1}));
  });
  EXPECT_EQ(machine.stats().news_ops, 0u);
  EXPECT_EQ(machine.stats().router_ops, 1u);
  EXPECT_EQ(machine.stats().router_messages, 12u);
}

TEST_F(DomainFixture, NestedParallelRejected) {
  EXPECT_THROW(dom.parallel(1,
                            [&](Elem&) {
                              dom.parallel(1, [&](Elem&) {});
                            }),
               support::ApiError);
}

TEST_F(DomainFixture, OutOfRangeGetThrows) {
  EXPECT_THROW(
      dom.parallel(1, [&](Elem& e) { e.set(v, e.get(v, {9, 9})); }),
      support::ApiError);
}

TEST(CstarCrossDomain, GetFromAndSendMinTo) {
  cm::Machine machine;
  Domain a(machine, "A", {4});
  Domain b(machine, "B", {4, 4});
  auto av = a.add_field("v");
  auto bv = b.add_field("v");
  a.parallel(1, [&](Elem& e) { e.set(av, 100); });
  b.parallel(1, [&](Elem& e) { e.set(bv, e.at(0) * 4 + e.at(1)); });
  // Each B(i,j) sends min of its value into A(i).
  b.parallel(2, [&](Elem& e) {
    e.send_min_to(a, av, {e.at(0)}, e.self(bv));
  });
  EXPECT_EQ(a.read(av, {0}), 0);
  EXPECT_EQ(a.read(av, {2}), 8);
  // And A can be read from B's sweep.
  b.parallel(2, [&](Elem& e) {
    e.set(bv, e.get_from(a, av, {e.at(0)}));
  });
  EXPECT_EQ(b.read(bv, {3, 1}), 12);
}

}  // namespace
}  // namespace uc::cstar
