#pragma once
// Small work-stealing thread pool and the data-parallel helpers below.
// Every design job runs on one lane; concurrency lives at the request
// level (one ScopedComputePool per server worker).
//
// Design constraints, in order:
//  * no external dependencies — std::thread + mutex + condition_variable;
//  * a stable *worker index* for every participating thread, so consumers
//    can own one scratch replica per lane with no sharing and no locking on
//    the hot path;
//  * the calling thread participates: it always owns lane 0, pool threads
//    own lanes 1..threadCount()-1. With threadCount() == 1 nothing is ever
//    spawned and every helper degenerates to the plain sequential loop —
//    the PMSCHED_THREADS=1 configuration is bit-for-bit the sequential
//    code path.
//
// Tasks are distributed over per-worker deques: submit() round-robins,
// workers pop their own deque from the back (LIFO, cache-hot) and steal
// from other deques' front (FIFO, oldest first) when theirs drains. The
// pool never detaches work: parallelFor/parallelMap block until every
// iteration ran, and rethrow the first (lowest-index) exception on the
// calling thread, so callers observe sequential error semantics.
//
// Thread count resolution: setThreadCount(n) wins; otherwise the
// PMSCHED_THREADS environment variable; otherwise hardware_concurrency().
// The global pool is created lazily and rebuilt when the count changes;
// rebuilding while work is in flight is the caller's bug (tests switch
// counts only between runs).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pmsched {

class ThreadPool {
 public:
  /// A unit of work; receives the executing worker's lane index
  /// (1..threadCount()-1 for pool threads; lane 0 is the caller's and is
  /// only used by the parallel helpers).
  using Task = std::function<void(std::size_t lane)>;

  /// `threads` is the TOTAL parallelism (caller lane included); the pool
  /// spawns threads-1 workers. threads == 0 is clamped to 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes, caller included (>= 1).
  [[nodiscard]] std::size_t threadCount() const { return lanes_; }

  /// Enqueue one task. The task may run on any pool lane; submit() from
  /// lane 0 only (the pool is driven by one coordinating thread at a time).
  void submit(Task task);

  /// Run fn(lane, i) for every i in [begin, end), split into `grain`-sized
  /// chunks over all lanes, caller participating. Blocks until done;
  /// rethrows the first (lowest chunk index) exception.
  void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// items.size() calls fn(lane, item) collected into a result vector.
  template <typename T, typename F>
  auto parallelMap(const std::vector<T>& items, F&& fn)
      -> std::vector<decltype(fn(std::size_t{0}, items[0]))> {
    using R = decltype(fn(std::size_t{0}, items[0]));
    std::vector<R> out(items.size());
    parallelFor(0, items.size(), 1,
                [&](std::size_t lane, std::size_t i) { out[i] = fn(lane, items[i]); });
    return out;
  }

 private:
  struct Lane {
    std::mutex mutex;
    std::deque<Task> deque;
  };

  void workerLoop(std::size_t lane);
  /// Pop a task for `lane`: own deque back first, then steal oldest from
  /// the others. Returns false when nothing is runnable.
  bool popTask(std::size_t lane, Task& out);

  std::size_t lanes_;                         ///< total, caller included
  std::vector<std::unique_ptr<Lane>> queues_;  ///< one per pool lane (1..)
  std::vector<std::thread> workers_;
  std::mutex sleepMutex_;
  std::condition_variable sleepCv_;
  std::size_t pendingTasks_ = 0;  ///< queued, not yet claimed (under sleepMutex_)
  bool closing_ = false;
  std::size_t rr_ = 0;  ///< round-robin submit cursor
};

/// Configured total parallelism: setThreadCount() override, else
/// PMSCHED_THREADS, else hardware_concurrency(); always >= 1.
[[nodiscard]] std::size_t threadCount();

/// Override the thread count (0 = back to automatic). Takes effect on the
/// next globalThreadPool() access; must not be called with work in flight.
void setThreadCount(std::size_t n);

/// The lazily-created process-wide pool at the configured thread count —
/// or, when the calling thread is inside a ScopedComputePool, that thread's
/// private pool (see below).
[[nodiscard]] ThreadPool& globalThreadPool();

/// Route THIS thread's globalThreadPool()/threadCount() to a private pool.
///
/// The process-wide pool is single-coordinator by design: exactly one
/// thread may drive submit()/parallelFor at a time. The server multiplexes
/// many concurrent design requests, so every server worker wraps its
/// request loop in a ScopedComputePool and gets its own lanes; anything
/// downstream that resolves the pool through globalThreadPool() lands on
/// the worker's private pool. Results are unaffected: no design job reads
/// the thread count.
///
/// Scopes nest (the previous override is restored on destruction); the
/// override never leaks to other threads.
class ScopedComputePool {
 public:
  /// `threads` = total lanes for this thread's private pool (0 = the
  /// configured threadCount()).
  explicit ScopedComputePool(std::size_t threads = 0);
  ~ScopedComputePool();
  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

  [[nodiscard]] ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
  ThreadPool* previous_;
};

}  // namespace pmsched
