#include "support/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>

namespace pmsched {

ThreadPool::ThreadPool(std::size_t threads) : lanes_(threads == 0 ? 1 : threads) {
  queues_.reserve(lanes_ > 0 ? lanes_ - 1 : 0);
  for (std::size_t i = 1; i < lanes_; ++i) queues_.push_back(std::make_unique<Lane>());
  workers_.reserve(queues_.size());
  for (std::size_t i = 1; i < lanes_; ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleepMutex_);
    closing_ = true;
  }
  sleepCv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(Task task) {
  if (workers_.empty()) {  // single-lane pool: run inline on the caller
    task(0);
    return;
  }
  {
    Lane& lane = *queues_[rr_];
    std::lock_guard<std::mutex> lock(lane.mutex);
    lane.deque.push_back(std::move(task));
  }
  rr_ = (rr_ + 1) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(sleepMutex_);
    ++pendingTasks_;
  }
  sleepCv_.notify_one();
}

bool ThreadPool::popTask(std::size_t lane, Task& out) {
  // Own deque from the back (newest, cache-hot)...
  {
    Lane& own = *queues_[lane - 1];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.deque.empty()) {
      out = std::move(own.deque.back());
      own.deque.pop_back();
      return true;
    }
  }
  // ...then steal the oldest task from any other lane.
  for (std::size_t k = 1; k < queues_.size() + 1; ++k) {
    if (k == lane) continue;
    Lane& other = *queues_[k - 1];
    std::lock_guard<std::mutex> lock(other.mutex);
    if (!other.deque.empty()) {
      out = std::move(other.deque.front());
      other.deque.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::workerLoop(std::size_t lane) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(sleepMutex_);
      sleepCv_.wait(lock, [this] { return pendingTasks_ > 0 || closing_; });
      if (pendingTasks_ == 0) {
        if (closing_) return;
        continue;
      }
      --pendingTasks_;
    }
    Task task;
    if (popTask(lane, task)) {
      task(lane);
    } else {
      // The counted task was stolen between the counter decrement and the
      // pop; give the slot back so its real owner wakes up.
      std::lock_guard<std::mutex> lock(sleepMutex_);
      ++pendingTasks_;
      sleepCv_.notify_one();
    }
  }
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                             const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t count = end - begin;
  const std::size_t chunks = (count + grain - 1) / grain;
  if (lanes_ == 1 || chunks == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(0, i);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> nextChunk{0};
    std::atomic<std::size_t> doneChunks{0};
    std::mutex mutex;  // guards firstError*; also the completion cv
    std::condition_variable cv;
    std::size_t firstErrorChunk = static_cast<std::size_t>(-1);
    std::exception_ptr firstError;
  };
  auto shared = std::make_shared<Shared>();

  auto runChunks = [this, shared, begin, end, grain, chunks, &fn](std::size_t lane) {
    for (;;) {
      const std::size_t c = shared->nextChunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(lane, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->mutex);
        // Keep the lowest-index failure so rethrow order is deterministic.
        if (c < shared->firstErrorChunk) {
          shared->firstErrorChunk = c;
          shared->firstError = std::current_exception();
        }
      }
      if (shared->doneChunks.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        std::lock_guard<std::mutex> lock(shared->mutex);
        shared->cv.notify_all();
      }
    }
  };

  // One driver task per pool lane; each claims chunks off the shared
  // cursor, which is what balances the load (stealing handles the case
  // where other submitted work occupies some lanes). Drivers beyond the
  // physical core count only thrash the scheduler — configured lane
  // counts above hardware_concurrency (determinism/stress tests) keep
  // their lane semantics, but the fan-out is capped at the hardware.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t hwDrivers = hw > 1 ? hw - 1 : 1;
  const std::size_t drivers = std::min({lanes_ - 1, chunks - 1, hwDrivers});
  for (std::size_t d = 0; d < drivers; ++d)
    submit([runChunks](std::size_t lane) { runChunks(lane); });
  runChunks(0);  // caller participates as lane 0

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(shared->mutex);
    shared->cv.wait(lock, [&] {
      return shared->doneChunks.load(std::memory_order_acquire) == chunks;
    });
    // Move the exception out so the last reference is always released on
    // this thread: a queued driver task may destroy its copy of `shared`
    // long after we return, and exception lifetimes must not cross that.
    err = std::move(shared->firstError);
    shared->firstError = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

namespace {

std::size_t resolveAutoThreads() {
  if (const char* env = std::getenv("PMSCHED_THREADS")) {
    char* endp = nullptr;
    const long v = std::strtol(env, &endp, 10);
    if (endp != env && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t& overrideSlot() {
  static std::size_t value = 0;  // 0 = automatic
  return value;
}

std::unique_ptr<ThreadPool>& poolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& poolMutex() {
  static std::mutex m;
  return m;
}

}  // namespace

namespace {

/// Per-thread pool override installed by ScopedComputePool. Plain
/// thread_local pointer: reads are uncontended and never touch poolMutex(),
/// so a worker inside a scope cannot deadlock against global pool rebuilds.
thread_local ThreadPool* tlsComputePool = nullptr;

}  // namespace

ScopedComputePool::ScopedComputePool(std::size_t threads)
    : pool_(threads != 0 ? threads : threadCount()), previous_(tlsComputePool) {
  tlsComputePool = &pool_;
}

ScopedComputePool::~ScopedComputePool() { tlsComputePool = previous_; }

std::size_t threadCount() {
  if (tlsComputePool != nullptr) return tlsComputePool->threadCount();
  std::lock_guard<std::mutex> lock(poolMutex());
  const std::size_t o = overrideSlot();
  return o != 0 ? o : resolveAutoThreads();
}

void setThreadCount(std::size_t n) {
  std::lock_guard<std::mutex> lock(poolMutex());
  overrideSlot() = n;
  poolSlot().reset();  // rebuilt at the new count on next access
}

ThreadPool& globalThreadPool() {
  if (tlsComputePool != nullptr) return *tlsComputePool;
  std::lock_guard<std::mutex> lock(poolMutex());
  std::unique_ptr<ThreadPool>& pool = poolSlot();
  const std::size_t o = overrideSlot();
  const std::size_t want = o != 0 ? o : resolveAutoThreads();
  if (!pool || pool->threadCount() != want) pool = std::make_unique<ThreadPool>(want);
  return *pool;
}

}  // namespace pmsched
