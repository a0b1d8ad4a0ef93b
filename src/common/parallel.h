// Parallel-for over independent work items: the queries of one AnswerBatch,
// which QueryEngine::RunBatch and Server::QueryBatch share. Each call
// spawns its own lanes and joins them before it returns, so no thread
// outlives a call and calls share no state. Nothing in the library nests a
// ParallelFor inside another; a nested call would spawn lanes of its own.
#ifndef UTK_COMMON_PARALLEL_H_
#define UTK_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>
#include <vector>

namespace utk {

/// Largest UTK_THREADS value honoured. DefaultThreads() caps the lanes of
/// every ParallelFor call, so a typo must not spawn thousands of threads.
inline constexpr int kMaxThreads = 1024;

/// Default lane count wherever a thread count is unset: the UTK_THREADS
/// env override when it is a whole integer in [1, kMaxThreads] ("4x",
/// " 4", "0" and out-of-range values do not count), else hardware
/// concurrency floored at 1 (NOT 4 — flooring unknown hardware at 4
/// oversubscribed single-core CI containers; an unknown topology now runs
/// serial).
inline int DefaultThreads() {
  if (const char* env = std::getenv("UTK_THREADS")) {
    const char* end = env + std::strlen(env);
    int v = 0;
    const auto [ptr, ec] = std::from_chars(env, end, v);
    if (ec == std::errc() && ptr == end && v >= 1 && v <= kMaxThreads)
      return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Invokes fn(i) for i in [0, count) across min(threads, count,
/// DefaultThreads()) lanes: the caller is lane 0, and the call spawns one
/// std::thread per other lane. Lanes pull indices from one shared cursor.
/// fn must be safe to call concurrently for distinct i; results should be
/// written to pre-sized per-index slots. One lane runs inline, in order.
/// Once any lane throws, no lane takes a new index; every thread is joined,
/// and the exception of the lowest-numbered failed lane is rethrown here.
/// If a thread cannot be spawned, the lanes already running take its share.
template <typename Fn>
void ParallelFor(int count, int threads, Fn&& fn) {
  if (count <= 0) return;
  const int lanes = std::min({threads, count, DefaultThreads()});
  if (lanes <= 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(lanes);  // one slot per lane
  auto lane = [&](int l) {
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(i);
      }
    } catch (...) {
      errors[l] = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> spawned;
  spawned.reserve(lanes - 1);
  for (int l = 1; l < lanes; ++l) {
    try {
      spawned.emplace_back(lane, l);
    } catch (...) {
      break;  // out of threads: the lanes already running drain the cursor
    }
  }
  lane(0);
  for (std::thread& t : spawned) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace utk

#endif  // UTK_COMMON_PARALLEL_H_
