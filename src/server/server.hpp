#pragma once
// ServerCore — the multi-tenant scheduling service behind `pmsched --serve`.
//
// One core multiplexes many concurrent design requests onto shared warm
// state:
//  * each worker thread wraps itself in a ScopedComputePool, so no request
//    contends with another for the single-coordinator global pool; each
//    design job itself runs on one lane;
//  * the thread-local DnfEngine/BddManager arenas stay warm across requests
//    on a worker and are trimmed (epoch-bumping, pin-respecting) between
//    requests so tenants cannot grow each other's memory unboundedly;
//  * a canonical-form DesignCache short-circuits isomorphic repeats
//    (see design_cache.hpp for the bit-identity argument);
//  * admission control bounds the queue: requests beyond the capacity get a
//    typed "admission" rejection instead of unbounded latency, and a
//    size-classed two-queue scheme keeps small requests responsive without
//    starving large ones.
//
// Transport is out of scope here: submitFrame() takes one JSONL line and a
// sink callback, so the stdio loop, the Unix-socket listener, the benches
// and the tests all drive the same object. Sinks run on the submitting
// thread for control ops and on a worker thread for design ops — transports
// serialize their writes.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/design_cache.hpp"
#include "server/protocol.hpp"

namespace pmsched {

struct ServerOptions {
  std::size_t workers = 0;          ///< worker threads; 0 = test mode (drainOne())
  std::size_t queueCapacity = 64;   ///< max queued design requests (small+large)
  std::size_t maxFrameBytes = 1 << 20;  ///< per-line frame limit (0 = unlimited)
  std::size_t cacheEntries = 256;   ///< DesignCache capacity (0 = cache off)
  std::size_t threadsPerWorker = 0;  ///< lanes per worker pool (0 = configured)
  std::size_t smallRequestBytes = 4096;  ///< graph-text size classing threshold
  /// DnfEngine probability-arena cap kept warm between requests on each
  /// worker (live pinned nodes always survive the trim).
  std::size_t warmDnfCap = 1 << 16;
  /// Server-side default RunBudget deadline applied to every design request
  /// that did not send its own `budget.ms` (0 = no default). A request's
  /// own deadline always wins; the other budget caps compose unchanged.
  std::uint64_t defaultDeadlineMs = 0;
  /// How long drain() waits for in-flight work before failing still-QUEUED
  /// requests with a typed error (running jobs are always waited out).
  std::uint64_t drainDeadlineMs = 5000;
  /// Pause before the single automatic retry of an internal-failed request
  /// (tests set 0 to keep supervision deterministic and fast).
  std::uint64_t retryBackoffMs = 10;
  /// Snapshot + journal file for the canonical design cache (empty = the
  /// cache is memory-only). The journal lives at "<path>.journal".
  std::string cachePersistPath;
  /// Journal appends between snapshot compactions.
  std::size_t compactEvery = 1024;
};

/// Counters reported by the "stats" op and asserted by the tests.
struct ServerStats {
  std::uint64_t accepted = 0;         ///< design requests admitted to a queue
  std::uint64_t completed = 0;        ///< design responses sent (ok or error)
  std::uint64_t rejectedAdmission = 0;
  std::uint64_t protocolErrors = 0;
  std::uint64_t sessionsOpened = 0;
  std::uint64_t sessionsClosed = 0;
  std::uint64_t sessionsOpen = 0;
  std::uint64_t sessionsPeak = 0;
  std::uint64_t queuedSmall = 0;  ///< current depths
  std::uint64_t queuedLarge = 0;
  // Supervision counters (the chaos harness asserts recovery through these):
  std::uint64_t workerRestarts = 0;  ///< crashed workers rebuilt (arenas quarantined)
  std::uint64_t retries = 0;         ///< internal-failed requests retried once
  std::uint64_t deadlineTrips = 0;   ///< server default deadline degraded a run
  std::uint64_t drainAbandoned = 0;  ///< queued jobs failed out at drain deadline
  DesignCacheStats cache;
};

class ServerCore {
 public:
  using ResponseSink = std::function<void(const std::string& line)>;

  explicit ServerCore(ServerOptions options = {});
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Handle one request line. Control ops (ping/stats/sessions/shutdown)
  /// respond synchronously through `sink`; design ops are admitted to the
  /// queue and respond from a worker later. Every outcome — including every
  /// malformed frame — produces exactly one response line. Returns false
  /// once the server is shut down (this call may be the one that shut it
  /// down); the transport should stop reading then.
  bool submitFrame(const std::string& line, ResponseSink sink);

  /// Test mode (workers == 0): dequeue and process one design request on
  /// the calling thread, observing the same fairness policy the workers
  /// use. Returns false when nothing is queued.
  bool drainOne();

  /// Block until every admitted design request has completed.
  void waitIdle();

  /// Stop accepting design requests (they now get a typed "server is
  /// shutting down" rejection) and wake every waiting worker. Idempotent;
  /// the `shutdown` op, SIGTERM/SIGINT, and the destructor all route here.
  void requestShutdown();

  /// The one drain path: requestShutdown(), wait up to
  /// options.drainDeadlineMs for in-flight work, fail any job still QUEUED
  /// at the deadline with a typed error, wait out the jobs actually running
  /// on workers, then flush the cache snapshot. Fires the "drain-deadline"
  /// fault site on entry (a fault means the deadline is treated as already
  /// expired — queued work fails out typed, nothing hangs or leaks).
  void drain();

  [[nodiscard]] bool shutdownRequested() const;
  [[nodiscard]] ServerStats statsSnapshot() const;
  /// Sessions still open (the shutdown response reports this as
  /// "leaked_sessions"; the CI smoke asserts it is zero).
  [[nodiscard]] std::size_t openSessions() const;

 private:
  struct Job {
    std::string idJson;
    std::string session;
    DesignRequest design;
    ResponseSink sink;
    std::uint32_t attempts = 0;  ///< supervised retries already consumed
    bool bypassCache = false;    ///< retry runs fresh, in case warm state crashed it
    bool responded = false;      ///< sink already called — supervision must not resend
  };

  void handleDesign(RequestFrame&& frame, ResponseSink& sink);
  void processJob(Job& job);
  /// Pop the next job per the fairness policy (small-first with an
  /// anti-starvation cap). Test mode: non-blocking. Worker mode: waits.
  bool popJob(Job& out, bool wait);
  void workerLoop();
  /// Run one job under supervision: any exception escaping processJob()
  /// (injected faults included) is caught here and either retried once
  /// (backoff + cache bypass) or answered with a typed `internal` error.
  /// Returns true when the worker crashed and must quarantine its arenas.
  bool runJobSupervised(Job& job);
  void superviseCrash(Job&& job, const std::string& what);
  void finishJob();

  ServerOptions options_;
  DesignCache cache_;

  mutable std::mutex mutex_;  ///< guards everything below
  std::condition_variable queueCv_;  ///< signalled on enqueue and close
  std::condition_variable idleCv_;   ///< signalled as jobs finish
  std::deque<Job> smallQueue_;
  std::deque<Job> largeQueue_;
  std::size_t smallStreak_ = 0;  ///< consecutive small pops while large waited
  std::map<std::string, std::uint64_t> sessions_;  ///< name -> request count
  ServerStats stats_;
  std::uint64_t inFlight_ = 0;  ///< admitted, not yet completed
  bool shutdown_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace pmsched
