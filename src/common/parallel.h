// Parallel-for over independent work items (the queries of a RunBatch or
// QueryBatch), backed by the shared work-stealing pool in
// common/pool.h. The old spawn-per-call std::thread fan-out is gone: every
// call draws lanes from ThreadPool::Global(), so nested fan-outs share one
// fixed set of OS threads, and a worker exception propagates to the caller
// instead of hitting std::terminate.
#ifndef UTK_COMMON_PARALLEL_H_
#define UTK_COMMON_PARALLEL_H_

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>

#include "common/pool.h"

namespace utk {

/// Invokes fn(i) for i in [0, count) across up to `threads` concurrent
/// lanes of the global pool (the calling thread is one of them). fn must be
/// safe to call concurrently for distinct i; results should be written to
/// pre-sized per-index slots. threads <= 1 runs inline, in order. The first
/// exception thrown by any lane is rethrown on the caller after all lanes
/// have been joined; remaining indices are abandoned.
template <typename Fn>
void ParallelFor(int count, int threads, Fn&& fn) {
  if (count <= 0) return;
  if (threads <= 1 || count == 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool::Global().ParallelFor(
      count, threads, std::function<void(int)>(std::forward<Fn>(fn)));
}

/// Largest UTK_THREADS value honoured; the global pool spawns this many
/// threads minus one, so a typo must not spawn thousands.
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

}  // namespace utk

#endif  // UTK_COMMON_PARALLEL_H_
