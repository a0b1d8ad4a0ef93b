#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rsa.h"
#include "data/generator.h"
#include "data/workload.h"
#include "index/rtree.h"
#include "scoped_threads.h"

namespace utk {
namespace {

// Runs fn(i) for i in [0, count) at width `threads` and returns the most
// indices that were ever in flight at once.
int PeakConcurrency(int count, int threads) {
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  ParallelFor(count, threads, [&](int) {
    const int now = running.fetch_add(1) + 1;
    int p = peak.load();
    while (now > p && !peak.compare_exchange_weak(p, now)) {
    }
    volatile int spin = 0;
    while (spin < 5000) spin = spin + 1;
    running.fetch_sub(1);
  });
  return peak.load();
}

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
  // An early spawn-per-call runtime std::terminate'd the process when a
  // spawned thread threw. Whatever the lane count (one lane on a 1-core
  // box runs inline), the exception must reach this frame.
  EXPECT_THROW(ParallelFor(50, 8,
                           [](int i) {
                             if (i == 11) throw std::runtime_error("pooled");
                           }),
               std::runtime_error);
}

TEST(Parallel, DefaultThreadsHonorsEnvOverride) {
  // DefaultThreads re-reads UTK_THREADS on every call, so the override is
  // testable in-process. Restore the prior state to keep the suite
  // hermetic.
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
  // fallback: never a parsed prefix ("4x" is not 4), never 99,999 lanes,
  // never a value wrapped past int. `n` differs from the fallback, so a
  // parser that honours the prefix fails here on any host.
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

TEST(Parallel, CoversAllIndicesExactlyOnceOnFourLanes) {
  // Same coverage as CoversAllIndicesOnce, but with four real lanes pinned,
  // so the claiming of indices across threads is exercised on any host.
  ScopedThreads env(4);
  std::vector<std::atomic<int>> hits(5000);
  ParallelFor(5000, 4, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 5000; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, RunsOnMultipleThreads) {
  // Deterministic even on one hardware core: the lane that takes the first
  // index waits until a second index has started, which only another lane
  // (another OS thread) can do while the first is parked in the wait.
  ScopedThreads env(4);
  std::atomic<int> arrived{0};
  std::vector<std::thread::id> tids(4);
  ParallelFor(4, 4, [&](int i) {
    tids[i] = std::this_thread::get_id();
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
  });
  EXPECT_GE(std::set<std::thread::id>(tids.begin(), tids.end()).size(), 2u);
}

TEST(Parallel, ConcurrencyNeverExceedsThreads) {
  ScopedThreads env(8);
  EXPECT_LE(PeakConcurrency(128, 2), 2);
  EXPECT_LE(PeakConcurrency(128, 3), 3);
}

TEST(Parallel, LanesCappedByDefaultThreads) {
  // A caller's RunBatch(specs, 100000) must not spawn 100k threads: lanes
  // are capped at DefaultThreads(), so at most two threads ever run fn.
  ScopedThreads env(2);
  std::vector<std::thread::id> tids(256);
  ParallelFor(256, 100000,
              [&](int i) { tids[i] = std::this_thread::get_id(); });
  EXPECT_LE(std::set<std::thread::id>(tids.begin(), tids.end()).size(), 2u);
  EXPECT_LE(PeakConcurrency(128, 100000), 2);
}

TEST(Parallel, InlineWhenDefaultThreadsIsOne) {
  ScopedThreads env(1);
  std::vector<int> order;
  std::vector<std::thread::id> tids;
  ParallelFor(5, 8, [&](int i) {  // one lane: no data race
    order.push_back(i);
    tids.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  for (const std::thread::id& t : tids)
    EXPECT_EQ(t, std::this_thread::get_id());
}

TEST(Parallel, WorkerExceptionPropagatesToCaller) {
  // The first exception is captured, every lane is joined, and it rethrows
  // here. Whichever lane takes index 0 throws at once, long before another
  // lane could work through the other 999 spin-loop indices.
  ScopedThreads env(2);
  std::atomic<int> completed{0};
  try {
    ParallelFor(1000, 2, [&](int i) {
      if (i == 0) throw std::runtime_error("index 0 failed");
      volatile int spin = 0;
      while (spin < 20000) spin = spin + 1;
      completed.fetch_add(1);
    });
    FAIL() << "expected the lane exception to rethrow on the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 0 failed");
  }
  // Abandonment: once a lane fails no lane takes a new index, so most of
  // the 999 non-throwing indices never ran.
  EXPECT_LT(completed.load(), 999);
}

TEST(Parallel, FirstExceptionWinsWhenSeveralLanesThrow) {
  ScopedThreads env(4);
  for (int trial = 0; trial < 20; ++trial) {
    bool caught = false;
    try {
      ParallelFor(64, 4, [&](int i) {
        throw std::runtime_error("index " + std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_EQ(std::string(e.what()).rfind("index ", 0), 0u) << e.what();
    }
    EXPECT_TRUE(caught);
  }
}

TEST(Parallel, NextCallRunsNormallyAfterFailure) {
  ScopedThreads env(3);
  EXPECT_THROW(
      ParallelFor(32, 3, [](int) { throw std::logic_error("boom"); }),
      std::logic_error);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(100, 3, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 100; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, NestedParallelForCompletes) {
  // Nothing in the library nests, but a nested call must still finish:
  // each inner call spawns and joins its own lanes.
  ScopedThreads env(3);
  std::vector<std::atomic<int>> inner_hits(4 * 8);
  ParallelFor(4, 4, [&](int outer) {
    ParallelFor(8, 4, [&](int inner) {
      inner_hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (int i = 0; i < 4 * 8; ++i) ASSERT_EQ(inner_hits[i].load(), 1) << i;
}

TEST(Parallel, ExceptionInNestedParallelForReachesOuterCaller) {
  ScopedThreads env(3);
  EXPECT_THROW(ParallelFor(4, 4,
                           [&](int) {
                             ParallelFor(8, 4, [&](int inner) {
                               if (inner == 3)
                                 throw std::runtime_error("inner");
                             });
                           }),
               std::runtime_error);
}

TEST(Parallel, ConcurrentCallersBothComplete) {
  // Two threads fan out at once; each call's cursor covers its own indices
  // only.
  ScopedThreads env(4);
  std::vector<std::atomic<int>> a(512), b(512);
  std::thread ta(
      [&] { ParallelFor(512, 4, [&](int i) { a[i].fetch_add(1); }); });
  std::thread tb(
      [&] { ParallelFor(512, 4, [&](int i) { b[i].fetch_add(1); }); });
  ta.join();
  tb.join();
  for (int i = 0; i < 512; ++i) {
    ASSERT_EQ(a[i].load(), 1) << i;
    ASSERT_EQ(b[i].load(), 1) << i;
  }
}

}  // namespace
}  // namespace utk
