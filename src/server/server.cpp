#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "cdfg/textio.hpp"
#include "explore/explore.hpp"
#include "sched/condition.hpp"
#include "server/cache_persist.hpp"
#include "support/fault_injector.hpp"
#include "support/json.hpp"
#include "support/run_budget.hpp"
#include "support/thread_pool.hpp"

namespace pmsched {

namespace {

/// How many consecutive small requests may jump the line while a large one
/// waits; keeps small-request latency low without starving large tenants.
constexpr std::size_t kSmallBurst = 4;

}  // namespace

ServerCore::ServerCore(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cacheEntries) {
  // Restore the warm cache BEFORE any worker can serve: a restarted server
  // answers its first isomorphic repeat from the replayed journal.
  if (!options_.cachePersistPath.empty() && options_.cacheEntries != 0)
    cache_.enablePersistence(std::make_unique<CachePersistence>(options_.cachePersistPath,
                                                                options_.compactEvery));
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ServerCore::~ServerCore() {
  requestShutdown();
  for (std::thread& t : workers_) t.join();
}

void ServerCore::requestShutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  queueCv_.notify_all();
}

bool ServerCore::submitFrame(const std::string& line, ResponseSink sink) {
  RequestFrame frame;
  try {
    frame = parseRequestFrame(line, options_.maxFrameBytes);
  } catch (const ServerError& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.protocolErrors;
    }
    sink(makeErrorResponse(extractFrameId(line), e.category(), e.what()));
    return !shutdownRequested();
  } catch (const FaultInjectedError& e) {
    // "serve-frame" clean degradation: this frame is lost, the connection
    // keeps serving and the process still exits 0 at EOF.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.protocolErrors;
    }
    sink(makeErrorResponse(extractFrameId(line), ServerErrorCategory::Internal, e.what()));
    return !shutdownRequested();
  }

  switch (frame.op) {
    case RequestOp::Design:
    case RequestOp::Explore:
      handleDesign(std::move(frame), sink);
      return !shutdownRequested();

    case RequestOp::Ping: {
      JsonWriter w;
      w.beginObject().key("pong").value(true).endObject();
      sink(makeResultResponse(frame.idJson, w.str()));
      return !shutdownRequested();
    }

    case RequestOp::OpenSession: {
      std::unique_lock<std::mutex> lock(mutex_);
      if (sessions_.count(frame.session) != 0) {
        lock.unlock();
        sink(makeErrorResponse(frame.idJson, ServerErrorCategory::Protocol,
                               "session '" + frame.session + "' is already open"));
        return !shutdownRequested();
      }
      sessions_.emplace(frame.session, 0);
      ++stats_.sessionsOpened;
      stats_.sessionsPeak = std::max<std::uint64_t>(stats_.sessionsPeak, sessions_.size());
      lock.unlock();
      JsonWriter w;
      w.beginObject().key("session").value(frame.session).key("open").value(true).endObject();
      sink(makeResultResponse(frame.idJson, w.str()));
      return !shutdownRequested();
    }

    case RequestOp::CloseSession: {
      std::unique_lock<std::mutex> lock(mutex_);
      auto it = sessions_.find(frame.session);
      if (it == sessions_.end()) {
        lock.unlock();
        sink(makeErrorResponse(frame.idJson, ServerErrorCategory::Protocol,
                               "session '" + frame.session + "' is not open"));
        return !shutdownRequested();
      }
      const std::uint64_t served = it->second;
      sessions_.erase(it);
      ++stats_.sessionsClosed;
      lock.unlock();
      JsonWriter w;
      w.beginObject()
          .key("session")
          .value(frame.session)
          .key("closed")
          .value(true)
          .key("requests")
          .value(static_cast<std::int64_t>(served))
          .endObject();
      sink(makeResultResponse(frame.idJson, w.str()));
      return !shutdownRequested();
    }

    case RequestOp::Stats: {
      const ServerStats s = statsSnapshot();
      JsonWriter w;
      w.beginObject()
          .key("accepted").value(static_cast<std::int64_t>(s.accepted))
          .key("completed").value(static_cast<std::int64_t>(s.completed))
          .key("rejected_admission").value(static_cast<std::int64_t>(s.rejectedAdmission))
          .key("protocol_errors").value(static_cast<std::int64_t>(s.protocolErrors))
          .key("sessions").beginObject()
              .key("opened").value(static_cast<std::int64_t>(s.sessionsOpened))
              .key("closed").value(static_cast<std::int64_t>(s.sessionsClosed))
              .key("open").value(static_cast<std::int64_t>(s.sessionsOpen))
              .key("peak").value(static_cast<std::int64_t>(s.sessionsPeak))
          .endObject()
          .key("queue").beginObject()
              .key("small").value(static_cast<std::int64_t>(s.queuedSmall))
              .key("large").value(static_cast<std::int64_t>(s.queuedLarge))
          .endObject()
          .key("supervision").beginObject()
              .key("worker_restarts").value(static_cast<std::int64_t>(s.workerRestarts))
              .key("retries").value(static_cast<std::int64_t>(s.retries))
              .key("deadline_trips").value(static_cast<std::int64_t>(s.deadlineTrips))
              .key("drain_abandoned").value(static_cast<std::int64_t>(s.drainAbandoned))
          .endObject()
          .key("cache").beginObject()
              .key("hits").value(static_cast<std::int64_t>(s.cache.hits))
              .key("exact_hits").value(static_cast<std::int64_t>(s.cache.exactHits))
              .key("misses").value(static_cast<std::int64_t>(s.cache.misses))
              .key("inserts").value(static_cast<std::int64_t>(s.cache.inserts))
              .key("evictions").value(static_cast<std::int64_t>(s.cache.evictions))
              .key("rejected_degraded").value(static_cast<std::int64_t>(s.cache.rejectedDegraded))
              .key("insert_failures").value(static_cast<std::int64_t>(s.cache.insertFailures))
              .key("journal_replayed").value(static_cast<std::int64_t>(s.cache.journalReplayed))
              .key("journal_skipped").value(static_cast<std::int64_t>(s.cache.journalSkipped))
              .key("journal_append_failures").value(static_cast<std::int64_t>(s.cache.journalAppendFailures))
          .endObject()
          .endObject();
      sink(makeResultResponse(frame.idJson, w.str()));
      return !shutdownRequested();
    }

    case RequestOp::Shutdown: {
      std::size_t leaked = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
        leaked = sessions_.size();
      }
      queueCv_.notify_all();
      // The transport observes the false return and runs the same drain()
      // path a signal does — this op only flips the flag and reports leaks.
      JsonWriter w;
      w.beginObject()
          .key("stopped")
          .value(true)
          .key("leaked_sessions")
          .value(static_cast<std::int64_t>(leaked))
          .endObject();
      sink(makeResultResponse(frame.idJson, w.str()));
      return false;
    }
  }
  return !shutdownRequested();
}

void ServerCore::handleDesign(RequestFrame&& frame, ResponseSink& sink) {
  try {
    fault::point("serve-accept");
  } catch (const FaultInjectedError& e) {
    // Clean degradation: this request is rejected as if the queue were
    // full; the server keeps serving.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.rejectedAdmission;
    }
    sink(makeErrorResponse(frame.idJson, ServerErrorCategory::Admission, e.what()));
    return;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) {
    lock.unlock();
    sink(makeErrorResponse(frame.idJson, ServerErrorCategory::Admission,
                           "server is shutting down"));
    return;
  }
  if (!frame.session.empty()) {
    auto it = sessions_.find(frame.session);
    if (it == sessions_.end()) {
      lock.unlock();
      sink(makeErrorResponse(frame.idJson, ServerErrorCategory::Protocol,
                             "session '" + frame.session + "' is not open"));
      return;
    }
    ++it->second;
  }
  const std::size_t pending = smallQueue_.size() + largeQueue_.size();
  if (pending >= options_.queueCapacity) {
    ++stats_.rejectedAdmission;
    lock.unlock();
    sink(makeErrorResponse(frame.idJson, ServerErrorCategory::Admission,
                           "design queue is full (" + std::to_string(pending) +
                               " pending)"));
    return;
  }
  Job job;
  job.idJson = std::move(frame.idJson);
  job.session = std::move(frame.session);
  job.design = std::move(frame.design);
  job.sink = std::move(sink);
  // Explore sweeps are whole-range jobs; they always class as large so a
  // burst of them cannot starve small one-shot requests.
  const bool small =
      !job.design.explore && job.design.graphText.size() <= options_.smallRequestBytes;
  (small ? smallQueue_ : largeQueue_).push_back(std::move(job));
  ++stats_.accepted;
  ++inFlight_;
  lock.unlock();
  queueCv_.notify_one();
}

bool ServerCore::popJob(Job& out, bool wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const bool haveSmall = !smallQueue_.empty();
    const bool haveLarge = !largeQueue_.empty();
    if (haveSmall || haveLarge) {
      // Small-first, but once kSmallBurst smalls have jumped a waiting
      // large request, the large one goes next.
      const bool takeLarge = haveLarge && (!haveSmall || smallStreak_ >= kSmallBurst);
      if (takeLarge) {
        out = std::move(largeQueue_.front());
        largeQueue_.pop_front();
        smallStreak_ = 0;
      } else {
        out = std::move(smallQueue_.front());
        smallQueue_.pop_front();
        smallStreak_ = haveLarge ? smallStreak_ + 1 : 0;
      }
      return true;
    }
    if (!wait || shutdown_) return false;
    queueCv_.wait(lock);
  }
}

void ServerCore::workerLoop() {
  // Supervision loop: each iteration is one incarnation of this worker. A
  // job whose exception escapes processJob() ends the incarnation — the
  // warm thread-local arenas are quarantined (they may be mid-mutation) and
  // the compute pool is rebuilt — then the next iteration starts a fresh
  // incarnation on the same OS thread, so the worker pool never shrinks.
  for (;;) {
    // Private lanes for this worker: the whole pipeline below resolves
    // globalThreadPool() to this pool, so concurrent requests never contend
    // for the single-coordinator process pool.
    ScopedComputePool scope(options_.threadsPerWorker);
    bool crashed = false;
    Job job;
    while (!crashed && popJob(job, /*wait=*/true)) {
      crashed = runJobSupervised(job);
      // Bound warm state between tenants: pinned nodes survive, the epoch
      // advances, and the next request re-warms only what it touches. A
      // crash instead quarantines EVERYTHING (cap 0 = full clear below).
      if (!crashed) trimDnfProbabilityManager(options_.warmDnfCap);
    }
    if (!crashed) return;  // clean shutdown: queues drained, flag set
    trimDnfProbabilityManager(0);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.workerRestarts;
    }
  }
}

bool ServerCore::drainOne() {
  Job job;
  if (!popJob(job, /*wait=*/false)) return false;
  // Same supervised path the workers run, so workers == 0 tests exercise
  // crash handling deterministically on the calling thread.
  const bool crashed = runJobSupervised(job);
  trimDnfProbabilityManager(crashed ? 0 : options_.warmDnfCap);
  if (crashed) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.workerRestarts;
  }
  return true;
}

bool ServerCore::runJobSupervised(Job& job) {
  try {
    // The "worker-crash" site models a fault INSIDE the worker but outside
    // the per-job typed catches — exactly what supervision exists for.
    fault::point("worker-crash");
    processJob(job);
    finishJob();
    return false;
  } catch (const std::exception& e) {
    superviseCrash(std::move(job), e.what());
    return true;
  } catch (...) {
    superviseCrash(std::move(job), "unknown worker failure");
    return true;
  }
}

void ServerCore::superviseCrash(Job&& job, const std::string& what) {
  if (!job.responded && job.attempts == 0) {
    // One bounded retry: fresh incarnation, cache bypassed (the warm path
    // may be what crashed), short backoff so a transient fault can clear.
    // The job stays in-flight, so waitIdle()/drain() still cover it, and it
    // re-enters through its size class without an admission check — it was
    // already admitted once.
    if (options_.retryBackoffMs > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.retryBackoffMs));
    job.attempts = 1;
    job.bypassCache = true;
    const bool small =
        !job.design.explore && job.design.graphText.size() <= options_.smallRequestBytes;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.retries;
      (small ? smallQueue_ : largeQueue_).push_back(std::move(job));
    }
    queueCv_.notify_one();
    return;
  }
  if (!job.responded) {
    // Retry also crashed (or the first crash was not retryable): the
    // requester gets a typed internal error, never silence.
    job.responded = true;
    job.sink(makeErrorResponse(job.idJson, ServerErrorCategory::Internal, what));
  }
  // Crash after the response was sent (e.g. during memoization): nothing to
  // resend — the requester already has the correct answer.
  finishJob();
}

namespace {

/// Raw-bytes key for the exact-request memo: every field that steers the
/// response payload, then the graph text verbatim. Computed BEFORE any
/// parsing, so a memo hit costs one hash + one compare of the request.
std::string exactRequestKey(const DesignRequest& d) {
  std::string key;
  key.reserve(d.graphText.size() + 32);
  key += std::to_string(d.steps);
  key += '|';
  key += std::to_string(static_cast<int>(d.ordering));
  key += '|';
  key += d.optimal ? '1' : '0';
  key += d.shared ? '1' : '0';
  key += d.emitDesign ? '1' : '0';
  key += '|';
  key += d.graphText;
  return key;
}

/// Compose the request's own caps with the server-side default deadline
/// (applied only when the request sent no `budget.ms` of its own — a client
/// deadline always wins; the other caps compose). Returns nullptr when the
/// job ends up unbudgeted; `defaultDeadline` reports whether the SERVER's
/// deadline is the active ms cap (for the deadline-trip counter).
const RunBudget* composeBudget(const DesignRequest& d, const ServerOptions& options,
                               RunBudget& storage, bool& defaultDeadline) {
  const RunBudget* budget = nullptr;
  if (d.hasBudget()) {
    if (d.budgetMs > 0) storage.setDeadline(std::chrono::milliseconds(d.budgetMs));
    if (d.budgetProbes > 0)
      storage.setProbeCap(static_cast<std::uint64_t>(d.budgetProbes));
    if (d.budgetBddNodes > 0)
      storage.setBddNodeCap(static_cast<std::size_t>(d.budgetBddNodes));
    if (d.budgetDnfTerms > 0)
      storage.setDnfTermCap(static_cast<std::size_t>(d.budgetDnfTerms));
    budget = &storage;
  }
  defaultDeadline = options.defaultDeadlineMs > 0 && d.budgetMs == 0;
  if (defaultDeadline) {
    storage.setDeadline(std::chrono::milliseconds(options.defaultDeadlineMs));
    budget = &storage;
  }
  return budget;
}

}  // namespace

void ServerCore::processJob(Job& job) {
  try {
    if (job.design.explore) {
      // Explore sweeps bypass both cache levels by construction (the parser
      // pins cache=false): the sweep itself is the amortization, and the
      // result shape (a front, not one design) does not fit either level.
      ExploreRequest req;
      req.graph = loadGraphText(job.design.graphText);
      req.minSteps = job.design.exploreMinSteps;
      req.maxSteps = job.design.exploreMaxSteps;
      req.span = job.design.exploreSpan;
      req.ordering = job.design.ordering;
      req.optimal = job.design.optimal;
      req.shared = job.design.shared;
      RunBudget budgetStorage;
      bool defaultDeadline = false;
      const RunBudget* budget =
          composeBudget(job.design, options_, budgetStorage, defaultDeadline);
      const ExploreResult res = exploreDesignSpace(req, budget);
      if (defaultDeadline && budgetStorage.exhaustedWhy() == BudgetKind::Deadline) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.deadlineTrips;
      }
      job.responded = true;
      job.sink(makeResultResponse(job.idJson, renderExploreJson(res)));
      return;
    }

    // Budgeted runs are wall-clock-dependent, so they neither consult nor
    // feed the cache — a replay could disagree with a live run. A retried
    // job also bypasses it: the warm path may be what crashed attempt 0.
    const bool cacheable = job.design.cache && !job.design.hasBudget() &&
                           !job.bypassCache && options_.cacheEntries != 0;

    // Level 1: byte-identical repeat of an earlier request — answer from
    // the memo without touching the graph at all.
    std::string exactKey;
    if (cacheable) {
      exactKey = exactRequestKey(job.design);
      if (auto memo = cache_.lookupExact(exactKey)) {
        job.responded = true;
        job.sink(makeResultResponse(job.idJson, *memo));
        return;
      }
    }

    DesignJob dj;
    dj.graph = loadGraphText(job.design.graphText);
    dj.steps = job.design.steps;
    dj.ordering = job.design.ordering;
    dj.optimal = job.design.optimal;
    dj.shared = job.design.shared;

    const DesignCacheOptions copts{dj.steps, dj.ordering, dj.optimal, dj.shared};

    // Level 2: canonical-form cache — renamed / reordered isomorphs of a
    // warm design land here.
    CanonicalForm form;
    if (cacheable) {
      form = canonicalizeGraph(dj.graph);
      if (auto hit = cache_.lookup(form, copts)) {
        // Summary-only requests skip the replay entirely: the stored
        // summary answers them, no clone or serialization needed.
        std::string text;
        if (job.design.emitDesign) {
          const Graph designGraph =
              DesignCache::replayDesignGraph(*hit, form, dj.graph);
          text = saveGraphText(designGraph);
        }
        const std::string resultJson =
            makeDesignResultJson(hit->summary, text, /*cacheHit=*/true);
        job.responded = true;
        job.sink(makeResultResponse(job.idJson, resultJson));
        cache_.insertExact(exactKey, resultJson);
        return;
      }
    }

    RunBudget budgetStorage;
    bool defaultDeadline = false;
    const RunBudget* budget =
        composeBudget(job.design, options_, budgetStorage, defaultDeadline);

    const DesignOutcome outcome = runDesignJob(dj, budget);
    if (defaultDeadline && budgetStorage.exhaustedWhy() == BudgetKind::Deadline) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.deadlineTrips;
    }
    // A default-deadline run that did NOT degrade is identical to an
    // unbudgeted one (the budget never tripped), so caching it is sound;
    // insert() rejects the degraded case on its own.
    if (cacheable) cache_.insert(form, copts, outcome);
    const std::string text =
        job.design.emitDesign ? saveGraphText(outcome.design.graph) : std::string();
    job.responded = true;
    job.sink(makeDesignResponse(job.idJson, outcome.summary, text, /*cacheHit=*/false));
    // Memoize under the raw request too (the stored variant reads
    // cache_hit:true, which is what a future memo hit is). Degraded
    // results are wall-clock-dependent and never memoized.
    if (cacheable && !outcome.summary.degraded)
      cache_.insertExact(exactKey,
                         makeDesignResultJson(outcome.summary, text, /*cacheHit=*/true));
  } catch (const ServerError& e) {
    job.responded = true;
    job.sink(makeErrorResponse(job.idJson, e.category(), e.what()));
  } catch (const ParseError& e) {
    job.responded = true;
    job.sink(makeErrorResponse(job.idJson, ServerErrorCategory::Parse, e.what()));
  } catch (const InfeasibleError& e) {
    job.responded = true;
    job.sink(makeErrorResponse(job.idJson, ServerErrorCategory::Infeasible, e.what()));
  } catch (const BudgetExceededError& e) {
    job.responded = true;
    job.sink(makeErrorResponse(job.idJson, ServerErrorCategory::Budget, e.what()));
  } catch (const SynthesisError& e) {
    // A pipeline invariant failed (e.g. the controller rejects the design).
    // The pipeline is deterministic, so a retry fails identically and the
    // warm arenas are not suspect: answer typed, no restart, no retry.
    job.responded = true;
    job.sink(makeErrorResponse(job.idJson, ServerErrorCategory::Internal, e.what()));
  }
  // No catch-all: anything else escaping here IS a worker crash. The
  // supervision layer (runJobSupervised) owns retry-or-typed-internal.
}

void ServerCore::finishJob() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.completed;
    --inFlight_;
  }
  idleCv_.notify_all();
}

void ServerCore::waitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [this] { return inFlight_ == 0; });
}

void ServerCore::drain() {
  requestShutdown();
  bool expired = false;
  try {
    fault::point("drain-deadline");
  } catch (const FaultInjectedError&) {
    // Clean degradation: pretend the deadline already passed — queued work
    // fails out typed immediately, running work is still waited out.
    expired = true;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (!expired)
    idleCv_.wait_for(lock, std::chrono::milliseconds(options_.drainDeadlineMs),
                     [this] { return inFlight_ == 0; });
  if (inFlight_ != 0) {
    // Deadline hit with work still pending. Jobs still QUEUED get a typed
    // error now (their sinks run below, outside the lock); jobs already
    // RUNNING on a worker are un-abandonable mid-pipeline, so those are
    // waited out unbounded — they always terminate (budgets bound them).
    std::deque<Job> abandoned;
    abandoned.swap(smallQueue_);
    while (!largeQueue_.empty()) {
      abandoned.push_back(std::move(largeQueue_.front()));
      largeQueue_.pop_front();
    }
    stats_.drainAbandoned += abandoned.size();
    stats_.completed += abandoned.size();
    inFlight_ -= abandoned.size();
    lock.unlock();
    for (Job& job : abandoned)
      job.sink(makeErrorResponse(job.idJson, ServerErrorCategory::Admission,
                                 "server drained before this request ran"));
    lock.lock();
    idleCv_.wait(lock, [this] { return inFlight_ == 0; });
  }
  lock.unlock();
  // The snapshot is a pure optimization (the journal already has every
  // insert), but flushing compacts the pair for the next boot.
  cache_.flushSnapshot();
}

bool ServerCore::shutdownRequested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

ServerStats ServerCore::statsSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats s = stats_;
  s.sessionsOpen = sessions_.size();
  s.queuedSmall = smallQueue_.size();
  s.queuedLarge = largeQueue_.size();
  s.cache = cache_.stats();
  return s;
}

std::size_t ServerCore::openSessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace pmsched
