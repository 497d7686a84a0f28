#include "sched/probe_farm.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "cdfg/analysis.hpp"
#include "support/fault_injector.hpp"
#include "support/random_dfg.hpp"
#include "support/run_budget.hpp"

namespace pmsched {

namespace {

/// Probing from more lanes than physical cores only adds contention; the
/// clamp is skipped in Force mode so the oversubscription stress tests
/// exercise the full configured lane count.
std::size_t effectiveLanes() {
  const std::size_t configured = globalThreadPool().threadCount();
  if (speculationMode() == SpeculationMode::Force) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? configured : std::min<std::size_t>(configured, hw);
}

// ---- self-calibration ------------------------------------------------------

/// A farm that cannot keep a worker lane busy has no handoff to measure;
/// this sentinel pushes the crossover to its ceiling so auto mode declines.
constexpr double kUnusableHandoffNs = 1e12;

/// Measure the two calibration costs on this machine. A few milliseconds,
/// run once per process (memoized by speculationCalibration()).
SpeculationCalibration measureCalibration() {
  using Clock = std::chrono::steady_clock;
  SpeculationCalibration cal;
  cal.measured = true;

  // Median incremental repair cost per node, on a synthetic layered DFG
  // shaped like the transform's inputs (same generator as the benches).
  {
    const Graph g = randomLayeredDfg(24, 8, 1996);
    const int steps = criticalPathLength(g) + 4;
    const double perProbe = measureMedianProbeNs(g, steps);
    cal.repairNsPerNode = std::max(1e-3, perProbe / static_cast<double>(g.size()));
  }

  // Wave-amortized handoff: rounds of empty-probe waves through the real
  // farm, lanes doing all the work (the consumer only polls — claiming
  // inline would time the wrong path). Empty batches make the probe itself
  // free, so the wave wall-clock IS the handoff cost.
  const Graph g = randomLayeredDfg(6, 4, 1996);
  const int steps = criticalPathLength(g) + 2;
  ProbeFarm farm(g, steps, LatencyModel::unit(), "calibration");
  if (farm.lanes() <= 1) {
    cal.handoffNs = kUnusableHandoffNs;
    return cal;
  }
  constexpr int kWave = 32;
  constexpr int kRounds = 5;  // first round is warm-up (lane spin-up)
  std::vector<double> rounds;
  for (int r = 0; r <= kRounds; ++r) {
    std::vector<std::size_t> tickets;
    tickets.reserve(kWave);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kWave; ++i) tickets.push_back(farm.stage({}));
    farm.ring();
    const Clock::time_point deadline = t0 + std::chrono::milliseconds(200);
    for (const std::size_t t : tickets) {
      while (!farm.tryResult(t)) {
        if (Clock::now() > deadline) {
          // Lanes starved (heavily loaded machine): claim the rest inline
          // so the measurement terminates; the round reads slow, which is
          // the honest verdict for this machine state.
          (void)farm.await(t);
          break;
        }
        std::this_thread::yield();
      }
    }
    const double ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    if (r > 0) rounds.push_back(ns / kWave);
  }
  // The FLOOR round, not the median: the handoff estimate is the machine's
  // capability, and a burst of transient load during the (one-shot)
  // measurement must not permanently disable speculation. Over-farming on
  // a loaded machine costs one amortized handoff per probe; under-farming
  // forfeits every lane forever.
  cal.handoffNs = std::max(1.0, *std::min_element(rounds.begin(), rounds.end()));
  return cal;
}

std::mutex& calibrationMutex() {
  static std::mutex m;
  return m;
}

std::optional<SpeculationCalibration>& calibrationOverrideSlot() {
  static std::optional<SpeculationCalibration> value;
  return value;
}

std::optional<SpeculationCalibration>& calibrationCacheSlot() {
  static std::optional<SpeculationCalibration> value;
  return value;
}

}  // namespace

std::size_t SpeculationCalibration::crossoverNodes() const {
  constexpr double kMin = 64.0;
  constexpr double kMax = static_cast<double>(std::size_t{1} << 22);
  if (!(repairNsPerNode > 0)) return static_cast<std::size_t>(kMax);
  const double x = std::clamp(handoffNs / repairNsPerNode, kMin, kMax);
  return static_cast<std::size_t>(x);
}

std::optional<SpeculationCalibration> parseCalibration(std::string_view text) {
  const std::string s(text);
  const char* first = s.c_str();
  char* end = nullptr;
  errno = 0;
  const double handoff = std::strtod(first, &end);
  if (end == first || *end != ',') return std::nullopt;
  const char* second = end + 1;
  const double repair = std::strtod(second, &end);
  if (end == second || *end != '\0') return std::nullopt;
  if (errno == ERANGE) return std::nullopt;
  if (!std::isfinite(handoff) || !std::isfinite(repair)) return std::nullopt;
  if (handoff <= 0 || repair <= 0) return std::nullopt;
  SpeculationCalibration cal;
  cal.handoffNs = std::clamp(handoff, 1.0, 1e9);
  cal.repairNsPerNode = std::clamp(repair, 1e-3, 1e6);
  cal.measured = false;
  return cal;
}

SpeculationCalibration speculationCalibration() {
  {
    std::lock_guard<std::mutex> lock(calibrationMutex());
    if (calibrationOverrideSlot()) return *calibrationOverrideSlot();
    if (calibrationCacheSlot()) return *calibrationCacheSlot();
    if (const char* env = std::getenv("PMSCHED_CALIBRATION")) {
      if (std::optional<SpeculationCalibration> parsed = parseCalibration(env)) {
        calibrationCacheSlot() = *parsed;
        return *parsed;
      }
    }
  }
  // Measure OUTSIDE the config lock: the measurement drives the thread
  // pool and must not serialize against concurrent mode queries.
  const SpeculationCalibration measured = measureCalibration();
  std::lock_guard<std::mutex> lock(calibrationMutex());
  if (calibrationOverrideSlot()) return *calibrationOverrideSlot();
  if (!calibrationCacheSlot()) calibrationCacheSlot() = measured;  // first writer wins
  return *calibrationCacheSlot();
}

void setSpeculationCalibration(std::optional<SpeculationCalibration> c) {
  std::lock_guard<std::mutex> lock(calibrationMutex());
  calibrationOverrideSlot() = c;
}

bool farmProbesWorthwhile(std::size_t graphSize) {
  switch (speculationMode()) {
    case SpeculationMode::Force: return true;
    case SpeculationMode::Off: return false;
    case SpeculationMode::Auto: break;
  }
  if (threadCount() <= 1) return false;
  return graphSize >= speculationCalibration().crossoverNodes();
}

// ---- ProbeFarm -------------------------------------------------------------

ProbeFarm::ProbeFarm(const Graph& g, int steps, const LatencyModel& model,
                     std::string errorContext, const RunBudget* budget)
    : g_(g),
      steps_(steps),
      model_(model),
      ctx_(std::move(errorContext)),
      lanes_(effectiveLanes()),
      budget_(budget) {
  // Everything else is lazy (see startLanes): a farm that never probes —
  // sweeps whose candidates all predecide, waves with no probeworthy
  // candidate — costs two integers, which is what lets the transform
  // construct one unconditionally.
  replicas_.resize(lanes_);
  // Constructing an oracle touches the Graph's lazy CSR/topo caches.
  // Every consumer owns a main oracle on the same graph before it builds
  // the farm, so the caches are warm; touch them here (cheap, idempotent,
  // consumer thread) rather than trusting that forever.
  (void)g_.fanoutCsr();
  (void)g_.controlSuccCsr();
  (void)g_.controlPredCsr();
  (void)g_.topoOrderView();
}

ProbeFarm::~ProbeFarm() {
  closingFlag_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closing_ = true;
  }
  if (submittedLanes_ == 0) return;  // no drain task ever started
  workCv_.notify_all();
  std::unique_lock<std::mutex> lock(mutex_);
  doneCv_.wait(lock, [this] { return exitedLanes_ == submittedLanes_; });
}

void ProbeFarm::startLanes() {
  ThreadPool& pool = globalThreadPool();
  for (std::size_t lane = 1; lane < lanes_; ++lane) {
    // Capture the FARM's replica slot: lanes_ may be clamped below the
    // pool's lane count, so the executing pool worker's own index can
    // exceed replicas_.
    pool.submit([this, lane](std::size_t) {
      laneLoop(lane);
      // Notify while holding the mutex: the destructor owns it while
      // checking the exit predicate, so the farm (and this condition
      // variable) cannot be torn down between the increment and the wake.
      std::lock_guard<std::mutex> lock(mutex_);
      ++exitedLanes_;
      doneCv_.notify_all();
    });
    ++submittedLanes_;
  }
}

void ProbeFarm::commitBatch(const TimeFrameOracle& committedState) {
  TimeFrameOracle::FrameSnapshot snap = committedState.snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  snapshots_.push_back(std::move(snap));
  version_.store(version_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
}

std::size_t ProbeFarm::stage(std::vector<Edge> edges) {
  fault::point("farm-stage");
  Job job;
  job.edges = std::move(edges);
  // The staging thread is the committing thread, so this is the version
  // the job would also observe at ring() time.
  job.version = version_.load(std::memory_order_relaxed);
  const std::size_t ticket = published_.size() + pendingWave_.size();
  pendingWave_.push_back(std::move(job));
  return ticket;
}

void ProbeFarm::ring() {
  if (pendingWave_.empty()) return;
  auto wave = std::make_unique<Wave>();
  wave->jobs = std::move(pendingWave_);
  pendingWave_.clear();
  const std::uint32_t n = static_cast<std::uint32_t>(wave->jobs.size());
  wave->state = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  for (std::uint32_t i = 0; i < n; ++i)
    wave->state[i].store(kQueued, std::memory_order_relaxed);
  // Slices amortize the claim fetch_add without starving lanes: aim for a
  // couple of slices per worker lane, capped so a blocked consumer's
  // inline steal of one hot job stays responsive.
  const std::uint32_t workers = static_cast<std::uint32_t>(lanes_ > 1 ? lanes_ - 1 : 1);
  wave->slice = std::clamp<std::uint32_t>(n / (2 * workers), 1, 16);
  Wave* raw = wave.get();
  for (std::uint32_t i = 0; i < n; ++i) published_.emplace_back(raw, i);
  if (lanes_ > 1 && submittedLanes_ == 0) startLanes();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    waves_.push_back(std::move(wave));
  }
  workCv_.notify_all();  // the one cv round for this wave
}

ProbeFarm::Result ProbeFarm::await(std::size_t ticket) {
  if (ticket >= published_.size()) ring();  // staged but never rung
  const auto [wave, slot] = published_.at(ticket);
  std::atomic<std::uint8_t>& st = wave->state[slot];
  Job& job = wave->jobs[slot];
  for (;;) {
    const std::uint8_t s = st.load(std::memory_order_acquire);
    if (s == kDone) return job.result;
    if (s == kQueued) {
      // Claim it ourselves: the consumer is blocked on this exact verdict,
      // so running it inline (on the caller's replica) beats waiting for a
      // lane to get to it.
      std::uint8_t expected = kQueued;
      if (st.compare_exchange_strong(expected, kClaimed, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        job.result = runJob(replicas_[0], job);
        st.store(kDone, std::memory_order_release);
        return job.result;
      }
      continue;
    }
    // Claimed by a lane: the result lands in about one probe time, so spin
    // briefly before paying a sleep.
    for (int spin = 0; spin < 64; ++spin) {
      if (st.load(std::memory_order_acquire) == kDone) return job.result;
      std::this_thread::yield();
    }
    // Dekker handshake with publishResult(): the flag store and the lane's
    // kDone store are both seq_cst, so either the lane sees the flag and
    // pays the lock+notify, or this predicate sees kDone and never sleeps.
    std::unique_lock<std::mutex> lock(mutex_);
    consumerWaiting_.store(true, std::memory_order_seq_cst);
    doneCv_.wait(lock, [&] { return st.load(std::memory_order_seq_cst) == kDone; });
    consumerWaiting_.store(false, std::memory_order_relaxed);
    return job.result;
  }
}

std::optional<ProbeFarm::Result> ProbeFarm::tryResult(std::size_t ticket) {
  if (ticket >= published_.size()) return std::nullopt;
  const auto [wave, slot] = published_[ticket];
  if (wave->state[slot].load(std::memory_order_acquire) != kDone) return std::nullopt;
  return wave->jobs[slot].result;
}

void ProbeFarm::laneLoop(std::size_t lane) {
  for (;;) {
    Wave* wave = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        // Exit before claiming anything else: once the consumer is tearing
        // the farm down, leftover abandoned jobs must not keep a lane (and
        // its reads of the shared Graph) alive — the consumer may mutate
        // the graph as soon as the destructor returns.
        if (closing_) return;
        while (firstOpenWave_ < waves_.size() && waves_[firstOpenWave_]->exhausted())
          ++firstOpenWave_;
        for (std::size_t k = firstOpenWave_; k < waves_.size(); ++k) {
          if (!waves_[k]->exhausted()) {
            wave = waves_[k].get();
            break;
          }
        }
        if (wave) break;
        workCv_.wait(lock);
      }
    }
    drainWave(*wave, lane);
  }
}

void ProbeFarm::drainWave(Wave& wave, std::size_t lane) {
  const std::uint32_t n = static_cast<std::uint32_t>(wave.jobs.size());
  for (;;) {
    const std::uint32_t base = wave.cursor.fetch_add(wave.slice, std::memory_order_relaxed);
    if (base >= n) return;
    const std::uint32_t end = std::min(n, base + wave.slice);
    for (std::uint32_t i = base; i < end; ++i) {
      // Both polls sit BEFORE the claim: a job this lane has claimed always
      // publishes (publishResult below), so the consumer's await can never
      // hang on a silently dropped slot. An exhausted budget (including a
      // cancelled token) therefore drains the farm within one slice-quantum
      // — the unclaimed remainder is either run inline by the consumer or
      // reaped by the destructor.
      if (closingFlag_.load(std::memory_order_relaxed)) return;  // teardown: stop claiming
      if (budget_ != nullptr && budget_->exhausted()) return;    // cancellation: stop claiming
      std::uint8_t expected = kQueued;
      if (!wave.state[i].compare_exchange_strong(expected, kClaimed,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire))
        continue;  // the blocked consumer stole it
      publishResult(wave, i, runJob(replicas_[lane], wave.jobs[i]));
    }
  }
}

void ProbeFarm::publishResult(Wave& wave, std::uint32_t slot, Result r) {
  wave.jobs[slot].result = std::move(r);
  wave.state[slot].store(kDone, std::memory_order_seq_cst);
  // Wake the consumer only if it declared itself blocked (see await):
  // while the consumer is ahead of the lanes — the throughput case — a
  // result costs one release store and no lock at all. The empty critical
  // section cannot be elided: holding the mutex for the notify pins the
  // consumer either before its predicate check (it will see kDone) or
  // inside the wait (the notify lands).
  if (consumerWaiting_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(mutex_);
    doneCv_.notify_all();
  }
}

void ProbeFarm::syncReplica(Replica& rep, std::uint64_t target) {
  if (rep.version == target) return;
  if (target == 0) {
    rep.oracle->restoreInitial();
  } else {
    const TimeFrameOracle::FrameSnapshot* snap;
    {
      // Snapshots are immutable once appended (and a deque push_back moves
      // no existing element), so only the pointer read is guarded.
      std::lock_guard<std::mutex> lock(mutex_);
      snap = &snapshots_[target - 1];
    }
    rep.oracle->restore(*snap);
  }
  rep.version = target;
}

ProbeFarm::Result ProbeFarm::runJob(Replica& rep, const Job& job) {
  Result r;
  r.version = job.version;
  if (version_.load(std::memory_order_acquire) != job.version)
    return r;  // stale before it ran: skip
  if (!rep.oracle) rep.oracle = std::make_unique<TimeFrameOracle>(g_, steps_, model_, ctx_);
  r.ran = true;
  try {
    // Inside the try: an injected fault is captured like a cycle error and
    // rethrown by the consumer at the candidate's turn, in order.
    fault::point("farm-run");
    syncReplica(rep, job.version);
    rep.oracle->push(job.edges, /*probe=*/true);
    r.feasible = rep.oracle->feasible();
    rep.oracle->pop();
  } catch (...) {
    // A cycle throw leaves the oracle unchanged; anything else mid-probe
    // could leave the probe batch open — unwind it so the replica stays
    // at its restored committed state.
    r.error = std::current_exception();
    while (rep.oracle->depth() > 0) rep.oracle->pop();
  }
  return r;
}

}  // namespace pmsched
