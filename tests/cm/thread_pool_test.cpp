#include "cm/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace uc::cm {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::vector<int> v(100, 0);
  pool.parallel_for(0, 100, [&](std::int64_t b, std::int64_t e) {
    for (auto i = b; i < e; ++i) v[static_cast<std::size_t>(i)] = 1;
  });
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 100);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { called = true; });
  pool.parallel_for(7, 3, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

class ThreadPoolP : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadPoolP, CoversRangeExactlyOnce) {
  ThreadPool pool(GetParam());
  constexpr std::int64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(
      0, kN,
      [&](std::int64_t b, std::int64_t e) {
        for (auto i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                      std::memory_order_relaxed);
        }
      },
      /*min_grain=*/64);
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST_P(ThreadPoolP, SumIsCorrect) {
  ThreadPool pool(GetParam());
  constexpr std::int64_t kN = 50000;
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(
      1, kN + 1,
      [&](std::int64_t b, std::int64_t e) {
        std::int64_t local = 0;
        for (auto i = b; i < e; ++i) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      },
      /*min_grain=*/128);
  EXPECT_EQ(sum.load(), kN * (kN + 1) / 2);
}

TEST_P(ThreadPoolP, ReusableAcrossManyCalls) {
  ThreadPool pool(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> count{0};
    pool.parallel_for(
        0, 2000,
        [&](std::int64_t b, std::int64_t e) {
          count.fetch_add(e - b, std::memory_order_relaxed);
        },
        /*min_grain=*/16);
    ASSERT_EQ(count.load(), 2000);
  }
}

TEST_P(ThreadPoolP, PropagatesException) {
  ThreadPool pool(GetParam());
  EXPECT_THROW(
      pool.parallel_for(
          0, 10000,
          [&](std::int64_t b, std::int64_t) {
            if (b == 0) throw std::runtime_error("boom");
          },
          /*min_grain=*/8),
      std::runtime_error);
  // Pool still usable afterwards.
  std::atomic<int> ok{0};
  pool.parallel_for(
      0, 100, [&](std::int64_t b, std::int64_t e) { ok += int(e - b); },
      /*min_grain=*/8);
  EXPECT_EQ(ok.load(), 100);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolP,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(ThreadPool, SmallJobsRunInlineOnCallingThread) {
  ThreadPool pool(4);
  const std::uint64_t jobs0 = pool.jobs_executed();
  std::atomic<int> count{0};
  pool.parallel_for(
      0, ThreadPool::kInlineCutoff,
      [&](std::int64_t b, std::int64_t e) { count += int(e - b); },
      /*min_grain=*/1);
  EXPECT_EQ(count.load(), ThreadPool::kInlineCutoff);
  EXPECT_EQ(pool.jobs_executed(), jobs0 + 1);
  EXPECT_EQ(pool.inline_jobs(), 1u);
  // The whole range ran as a single chunk on the calling thread.
  EXPECT_EQ(pool.chunks_per_worker()[0], 1u);
  for (std::size_t w = 1; w < pool.chunks_per_worker().size(); ++w) {
    EXPECT_EQ(pool.chunks_per_worker()[w], 0u);
  }

  // One past the cutoff dispatches to the workers again.
  pool.parallel_for(
      0, ThreadPool::kInlineCutoff + 1,
      [&](std::int64_t b, std::int64_t e) { count += int(e - b); },
      /*min_grain=*/1);
  EXPECT_EQ(pool.inline_jobs(), 1u);
}

TEST(ThreadPool, ThreadCountReported) {
  EXPECT_EQ(ThreadPool(1).thread_count(), 1u);
  EXPECT_EQ(ThreadPool(4).thread_count(), 4u);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A region body may call helpers that use the pool again; the pool holds
  // a single job slot, so the nested region must run inline on the calling
  // worker (under its id) instead of re-entering the pool and deadlocking.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4000);
  std::atomic<int> mismatched_ids{0};
  pool.parallel_for_indexed(
      0, 4000,
      [&](unsigned outer, std::int64_t b, std::int64_t e) {
        pool.parallel_for_indexed(
            b, e,
            [&](unsigned inner, std::int64_t ib, std::int64_t ie) {
              if (inner != outer) mismatched_ids++;
              for (auto i = ib; i < ie; ++i) {
                hits[static_cast<std::size_t>(i)].fetch_add(
                    1, std::memory_order_relaxed);
              }
            },
            /*min_grain=*/8);
      },
      /*min_grain=*/1000);
  EXPECT_EQ(mismatched_ids.load(), 0);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ErrorFromLowestRangeWins) {
  // When several chunks throw, the rethrown error must be the one the
  // serial left-to-right execution would have hit first — not whichever
  // worker finished first (scheduling-dependent).
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(
          0, 4000,
          [&](std::int64_t b, std::int64_t) {
            throw std::runtime_error("chunk@" + std::to_string(b));
          },
          /*min_grain=*/100);
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk@0");
    }
  }
}

TEST(ThreadPool, ZeroThreadCountFallsBackToHardware) {
  // thread_count==0 means "ask the OS"; even when hardware_concurrency()
  // itself returns 0 the pool must come up with at least one thread.
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  std::atomic<int> n{0};
  pool.parallel_for(
      0, 2000, [&](std::int64_t b, std::int64_t e) { n += int(e - b); },
      /*min_grain=*/100);
  EXPECT_EQ(n.load(), 2000);
}

}  // namespace
}  // namespace uc::cm
