#include "common/parallel.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rsa.h"
#include "data/generator.h"
#include "data/workload.h"
#include "index/rtree.h"

namespace utk {
namespace {

TEST(Parallel, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 8, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, InlineWhenSingleThread) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](int i) { order.push_back(i); });  // no data race
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, ZeroAndNegativeCount) {
  int calls = 0;
  ParallelFor(0, 4, [&](int) { ++calls; });
  ParallelFor(-3, 4, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Parallel, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(3, 16, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, ConcurrentUtkQueriesMatchSerial) {
  // The library has no global mutable state (LP counters are thread_local):
  // concurrent queries must produce identical results to serial ones.
  Dataset data = Generate(Distribution::kIndependent, 400, 3, 77);
  RTree tree = RTree::BulkLoad(data);
  auto queries = QueryBatch(2, 0.08, 8, 123);
  std::vector<std::vector<int32_t>> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i)
    serial[i] = Rsa().Run(data, tree, queries[i], 4).ids;
  std::vector<std::vector<int32_t>> parallel(queries.size());
  ParallelFor(static_cast<int>(queries.size()), 4, [&](int i) {
    parallel[i] = Rsa().Run(data, tree, queries[i], 4).ids;
  });
  EXPECT_EQ(parallel, serial);
}

TEST(Parallel, DefaultThreadsPositive) { EXPECT_GE(DefaultThreads(), 1); }

TEST(Parallel, ExceptionPropagatesFromInlinePath) {
  // threads <= 1 runs inline; the exception must surface unchanged and the
  // loop must stop at the throwing index.
  int ran = 0;
  EXPECT_THROW(ParallelFor(10, 1,
                           [&](int i) {
                             if (i == 3) throw std::runtime_error("inline");
                             ++ran;
                           }),
               std::runtime_error);
  EXPECT_EQ(ran, 3);
}

TEST(Parallel, ExceptionPropagatesFromPooledPath) {
  // Regression for the satellite bugfix: the old spawn-per-call runtime
  // std::terminate'd the process when a worker threw. Whatever the global
  // pool's size (0 workers on a 1-core box falls back to the caller lane),
  // the exception must reach this frame.
  EXPECT_THROW(ParallelFor(50, 8,
                           [](int i) {
                             if (i == 11) throw std::runtime_error("pooled");
                           }),
               std::runtime_error);
}

TEST(Parallel, DefaultThreadsHonorsEnvOverride) {
  // DefaultThreads re-reads UTK_THREADS on every call (only the global
  // pool's size is frozen at first use), so the override is testable
  // in-process. Restore the prior state to keep the suite hermetic.
  const char* prev = std::getenv("UTK_THREADS");
  const std::string saved = prev != nullptr ? prev : "";

  ASSERT_EQ(unsetenv("UTK_THREADS"), 0);
  const int fallback = DefaultThreads();  // hardware detection, floored at 1
  ASSERT_GE(fallback, 1);

  ASSERT_EQ(setenv("UTK_THREADS", "3", 1), 0);
  EXPECT_EQ(DefaultThreads(), 3);
  ASSERT_EQ(setenv("UTK_THREADS", "1", 1), 0);
  EXPECT_EQ(DefaultThreads(), 1);
  ASSERT_EQ(setenv("UTK_THREADS", "007", 1), 0);
  EXPECT_EQ(DefaultThreads(), 7);
  ASSERT_EQ(setenv("UTK_THREADS", "1024", 1), 0);
  EXPECT_EQ(DefaultThreads(), kMaxThreads);
  // Anything but a whole integer in [1, kMaxThreads] yields exactly the
  // fallback: never a parsed prefix ("4x" is not 4), never a pool of
  // 99,999 threads, never a value wrapped past int. `n` differs from the
  // fallback, so a parser that honours the prefix fails here on any host.
  const std::string n = std::to_string(fallback % kMaxThreads + 1);
  ASSERT_EQ(setenv("UTK_THREADS", n.c_str(), 1), 0);
  EXPECT_EQ(std::to_string(DefaultThreads()), n);
  for (const std::string& bad :
       {std::string("0"), std::string("-2"), std::string("abc"),
        std::string(""), n + "x", " " + n, n + " ", "+" + n, n + ".0",
        std::string("1025"), std::string("100000"),
        std::string("99999999999")}) {
    ASSERT_EQ(setenv("UTK_THREADS", bad.c_str(), 1), 0);
    EXPECT_EQ(DefaultThreads(), fallback) << "UTK_THREADS='" << bad << "'";
  }

  if (prev != nullptr) {
    ASSERT_EQ(setenv("UTK_THREADS", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("UTK_THREADS"), 0);
  }
}

}  // namespace
}  // namespace utk
