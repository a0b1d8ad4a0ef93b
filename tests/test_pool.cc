// Tests for the shared work-stealing pool (common/pool.h).
//
// The global pool on a CI box may have zero workers (1 hardware thread),
// which would make every ParallelFor inline — so these tests build local
// ThreadPool instances with explicit sizes to exercise real cross-thread
// scheduling, stealing, helping, and exception plumbing regardless of the
// host's core count.
#include "common/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace utk {
namespace {

TEST(Pool, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> hits(5000);
  pool.ParallelFor(5000, 4, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 5000; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Pool, RunsOnMultipleThreads) {
  // Deterministic even on a single hardware core: the first lane to enter
  // a task blocks until a second lane (necessarily a different OS thread —
  // the first is parked inside the wait) arrives. Workers are real
  // threads, so the scheduler always lets one in eventually.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::set<std::thread::id> tids;
  pool.ParallelFor(4, 4, [&](int) {
    std::unique_lock<std::mutex> lock(mu);
    tids.insert(std::this_thread::get_id());
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived >= 2; });
  });
  EXPECT_GE(static_cast<int>(tids.size()), 2);
}

TEST(Pool, ParallelismCapsConcurrency) {
  ThreadPool pool(8);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  pool.ParallelFor(128, 2, [&](int) {
    const int now = running.fetch_add(1) + 1;
    int p = peak.load();
    while (now > p && !peak.compare_exchange_weak(p, now)) {
    }
    volatile int spin = 0;
    while (spin < 5000) spin = spin + 1;
    running.fetch_sub(1);
  });
  EXPECT_LE(peak.load(), 2);  // lanes = min(parallelism, count) = 2
}

TEST(Pool, InlineWhenNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::vector<int> order;
  pool.ParallelFor(5, 8, [&](int i) { order.push_back(i); });  // no race
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Pool, WorkerExceptionPropagatesToCaller) {
  // The satellite bugfix: the old spawn-per-call ParallelFor ran fn inside
  // a bare std::thread, so a throwing lane took the whole process down via
  // std::terminate. The pool must capture the first exception, join every
  // lane, and rethrow on the caller.
  // The caller is lane 0 and starts pulling indices synchronously, so it
  // reaches index 0 — and throws — before a woken worker could plausibly
  // chew through the other 999 spin-loop tasks (milliseconds of work vs
  // the microseconds the failure flag takes to land).
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(1000, 2, [&](int i) {
      if (i == 0) throw std::runtime_error("lane 0 failed");
      volatile int spin = 0;
      while (spin < 5000) spin = spin + 1;
      completed.fetch_add(1);
    });
    FAIL() << "expected the lane exception to rethrow on the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 0 failed");
  }
  // Abandonment: once the group fails no lane starts new indices, so most
  // of the 999 non-throwing indices never ran.
  EXPECT_LT(completed.load(), 999);
}

TEST(Pool, FirstExceptionWinsWhenSeveralLanesThrow) {
  ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    bool caught = false;
    try {
      pool.ParallelFor(64, 4, [&](int i) {
        throw std::runtime_error("lane " + std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_EQ(std::string(e.what()).rfind("lane ", 0), 0u) << e.what();
    }
    EXPECT_TRUE(caught);
  }
}

TEST(Pool, PoolSurvivesAndReschedulesAfterFailure) {
  // A failed group must not poison the pool: workers stay alive and the
  // next ParallelFor on the same instance completes normally.
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.ParallelFor(32, 3, [](int) { throw std::logic_error("boom"); }),
      std::logic_error);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, 3, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 100; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Pool, NestedParallelForDoesNotDeadlock) {
  // Nested fan-out is the whole point of a shared pool: an outer lane that
  // calls ParallelFor again must help drain tasks while waiting (possibly
  // other outer lanes' inner tasks) rather than blocking a worker slot
  // forever. 4 outer x 8 inner on a 3-thread pool forces the help path.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> inner_hits(4 * 8);
  pool.ParallelFor(4, 4, [&](int outer) {
    pool.ParallelFor(8, 4, [&](int inner) {
      inner_hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (int i = 0; i < 4 * 8; ++i) ASSERT_EQ(inner_hits[i].load(), 1) << i;
}

TEST(Pool, ExceptionInNestedParallelForReachesOuterCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(4, 4,
                                [&](int) {
                                  pool.ParallelFor(8, 4, [&](int inner) {
                                    if (inner == 3)
                                      throw std::runtime_error("inner");
                                  });
                                }),
               std::runtime_error);
}

TEST(Pool, ConcurrentGroupsFromDistinctCallersBothComplete) {
  // Two external threads fan out on the same pool at once; stealing must
  // keep both groups flowing and neither may observe the other's indices.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(512), b(512);
  std::thread ta(
      [&] { pool.ParallelFor(512, 4, [&](int i) { a[i].fetch_add(1); }); });
  std::thread tb(
      [&] { pool.ParallelFor(512, 4, [&](int i) { b[i].fetch_add(1); }); });
  ta.join();
  tb.join();
  for (int i = 0; i < 512; ++i) {
    ASSERT_EQ(a[i].load(), 1) << i;
    ASSERT_EQ(b[i].load(), 1) << i;
  }
}

TEST(Pool, GlobalPoolIsSingletonAndUsableViaParallelFor) {
  ThreadPool& g1 = ThreadPool::Global();
  ThreadPool& g2 = ThreadPool::Global();
  EXPECT_EQ(&g1, &g2);
  EXPECT_GE(g1.threads(), 1);
  // The free-function ParallelFor routes through the global pool (or runs
  // inline when it has no workers); either way the contract holds.
  std::vector<std::atomic<int>> hits(200);
  ParallelFor(200, 8, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 200; ++i) ASSERT_EQ(hits[i].load(), 1);
}

}  // namespace
}  // namespace utk
