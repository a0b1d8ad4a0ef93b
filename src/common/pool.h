// Shared work-stealing thread pool for every parallel surface in the repo.
//
// PR 1..8 parallelized with a spawn-per-call ParallelFor: fine for a
// handful of batch queries, wrong for a runtime where
// QueryEngine::RunBatch and Server::QueryBatch may nest and both want
// cores at once — nested fan-outs would multiply threads instead of
// sharing them. This pool is the one place OS threads are created:
//
//   * one process-wide Global() instance, sized once from UTK_THREADS
//     (else DefaultThreads()); workers = size - 1 because the caller of
//     every ParallelFor is itself a lane,
//   * per-worker deques — owners push/pop LIFO for locality, idle workers
//     and waiting callers steal FIFO from the others,
//   * callers *help* while waiting (they drain tasks, including other
//     groups'), so nested ParallelFor never deadlocks and never spawns,
//   * the first exception thrown by any lane is captured as an
//     std::exception_ptr, remaining work is abandoned, every lane is
//     joined, and the exception rethrows on the caller — the contract the
//     old spawn-per-call ParallelFor violated by std::terminate'ing.
//
// Determinism: the pool itself guarantees only that fn(i) runs exactly
// once per index. Callers that need ordered output (RunBatch) write to
// per-index slots. Each lane runs whole queries; no query splits its own
// work across lanes.
#ifndef UTK_COMMON_POOL_H_
#define UTK_COMMON_POOL_H_

#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace utk {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller of ParallelFor is the last
  /// lane). threads <= 1 spawns none; every ParallelFor then runs inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, sized from UTK_THREADS / DefaultThreads() on
  /// first use. QueryEngine::RunBatch and Server::QueryBatch draw from
  /// this instance.
  static ThreadPool& Global();

  /// Lanes available including the caller (worker count + 1).
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Invokes fn(i) for every i in [0, count) across up to `parallelism`
  /// concurrent lanes (the calling thread is one of them; extra lanes are
  /// pool workers). fn must be safe to call concurrently for distinct i.
  /// Runs inline, in order, when parallelism <= 1, count == 1, or the pool
  /// has no workers. If any lane throws, the remaining indices are
  /// abandoned, all lanes are joined, and the first captured exception is
  /// rethrown here.
  void ParallelFor(int count, int parallelism,
                   const std::function<void(int)>& fn);

 private:
  // One batch of lane tasks; completion and the first error live here.
  struct Group {
    std::atomic<int> pending{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // guarded by pool mu_
  };
  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
  };
  // Per-worker deque: owner pushes/pops back, thieves pop front.
  struct WorkerQueue {
    Mutex mu;
    std::deque<Task> tasks UTK_GUARDED_BY(mu);
  };

  void Submit(Group* group, std::function<void()> fn);
  bool TryAcquire(int self, Task* out);
  void RunTask(Task& task);
  void WaitGroup(Group* group, int self);
  void RecordError(Group* group, std::exception_ptr error);
  void WorkerLoop(int self);
  int SelfIndex() const;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  Mutex mu_;     // sleep/wake + group error storage
  CondVar cv_;   // "task queued" and "group finished"
  std::atomic<int> queued_{0};
  std::atomic<uint32_t> next_queue_{0};  // round-robin for external submits
  bool stop_ UTK_GUARDED_BY(mu_) = false;
};

}  // namespace utk

#endif  // UTK_COMMON_POOL_H_
