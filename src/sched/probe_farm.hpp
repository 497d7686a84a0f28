#pragma once
// ProbeFarm — parallel speculative probing for shared gating
// (applySharedGating), with a BATCHED WAVE handoff. The greedy
// transform decides from the committed frames instead (TimeFrameOracle's
// slack verdicts) and needs no farm.
//
// Shared gating's inner loop is "tentatively add this
// candidate's control edges to the committed set, ask the TimeFrameOracle
// whether the frames stay feasible, then accept or reject". The loop is
// inherently sequential in its *decisions* (a candidate's verdict depends
// on every earlier acceptance), but almost all of its *work* is probes that
// end in rejection — and a probe is a pure function of (committed edge set,
// candidate edges). The farm exploits that: it owns one TimeFrameOracle
// replica per ThreadPool lane and probes a wave of upcoming candidates
// concurrently against the current committed state, while the consuming
// thread walks candidates strictly in the original order and commits
// winners on its own oracle.
//
// Wave handoff. PR 4 paid one cross-thread handoff PER PROBE: every
// enqueue took the farm mutex and rang a condition variable, every claim
// took the mutex, every result took the mutex and rang back. A handoff
// round-trip costs ~5-10 µs on bare metal and >100 µs on oversubscribed
// VMs — more than a typical incremental repair — which is why PR 4's auto
// mode left paper-scale graphs sequential. PR 5 amortizes the handoff over
// whole waves:
//
//   stage(edges, ...) -> ticket   collect a candidate on the consumer
//                                 thread; no lock, no wake
//   ring()                        publish every staged job as ONE wave:
//                                 one mutex acquisition, one notify_all —
//                                 one cv round per wave, not per probe
//   await(ticket) / tryResult()   consume verdicts in candidate order
//
// A published wave is a fixed block: a job array, a lock-free claim cursor
// (lanes grab SLICES of consecutive jobs with one fetch_add) and a
// lock-free per-job state/result array. Lanes publish a result with one
// release store; they touch the mutex only to discover new waves and to
// wake a consumer that has declared itself blocked (a Dekker-style
// seq_cst flag, so the wake is never lost and never paid when the
// consumer is still ahead of the lanes). enqueue() remains as
// stage()+ring() — a wave of one, which is exactly the PR-4 per-probe
// handoff and is what BM_ProbeFarmHandoffPerProbe measures against
// BM_ProbeFarmHandoffWave.
//
// Versioned committed state. version() = number of committed batches. Each
// commitBatch() stores a FrameSnapshot of the consumer's oracle — the
// fixed-point frames plus the live extra edges — so a replica serves a job
// at any version by restoring that
// snapshot: an O(V) array copy, not a replay of every batch repair. A
// candidate probe is then a single push/pop on top of the restored state.
//
// Determinism contract (enforced by tests/test_pm_differential.cpp at 1, 2
// and 8 threads): results consumed from the farm are BIT-IDENTICAL to the
// sequential sweep, because
//  * every job's Result carries the version it ran against (captured at
//    stage() time — the staging thread is the committing thread, so the
//    version cannot move between stage() and ring()); the consumer
//    accepts a verdict only under the staleness rules below, all of which
//    reproduce exactly what a fresh probe at the candidate's turn returns;
//  * a STALE INFEASIBLE verdict stays valid: committed batches only grow
//    within a sweep and adding precedence edges can only raise ASAP values,
//    so a batch infeasible against a subset of the committed set is
//    infeasible against the full set (monotonicity);
//  * a STALE FEASIBLE verdict proves nothing; consumers re-validate those
//    on their own oracle (or re-enqueue), paying exactly the sequential
//    cost for that one candidate.
//
// Thread-safety: stage/ring/enqueue/await/tryResult/commitBatch are
// single-consumer (the thread that owns the sweep); lanes only claim jobs
// and fill results. The Graph is shared read-only; the farm constructor
// warms its lazy caches (CSR views, topo order) before any lane can touch
// it.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/graph.hpp"
#include "sched/latency.hpp"
#include "sched/timeframe_oracle.hpp"
#include "support/thread_pool.hpp"

namespace pmsched {

class RunBudget;

// ---- speculation self-calibration ------------------------------------------

/// Machine-specific costs that decide when farming a probe beats running it
/// inline. Measured once per process on first use (a wave of empty probes
/// through the real farm for the handoff; a median incremental repair on a
/// synthetic graph for the probe cost), or parsed from the
/// PMSCHED_CALIBRATION environment variable ("<handoffNs>,<repairNsPerNode>")
/// for reproducible runs — `pmsched --calibration` prints the measured pair
/// in exactly that format so it can be persisted.
struct SpeculationCalibration {
  /// Wave-amortized cost of handing one probe to a lane and reading its
  /// result back, in nanoseconds. Effectively infinite when the farm
  /// cannot keep a second lane (single thread / single core), which is
  /// what makes auto mode decline on such machines without a special case.
  double handoffNs = 0;
  /// Median incremental frame repair cost per graph node, in nanoseconds:
  /// a probe on an N-node graph is estimated at N * repairNsPerNode.
  double repairNsPerNode = 0;
  /// False when the values came from PMSCHED_CALIBRATION.
  bool measured = false;

  /// Smallest graph (node count) for which one probe's estimated repair
  /// outweighs the amortized handoff, clamped to [64, 1<<22].
  [[nodiscard]] std::size_t crossoverNodes() const;
};

/// Parse a PMSCHED_CALIBRATION value. Accepts two positive finite decimal
/// numbers separated by a comma; values are clamped to sane ranges
/// (handoff to [1, 1e9] ns, per-node repair to [1e-3, 1e6] ns). Returns
/// nullopt on malformed input (wrong arity, trailing garbage, NaN/inf,
/// non-positive values), which falls back to measurement.
[[nodiscard]] std::optional<SpeculationCalibration> parseCalibration(std::string_view text);

/// The process-wide calibration: setSpeculationCalibration() override, else
/// PMSCHED_CALIBRATION, else measured once on first call (a few ms).
/// Returned by value: the memoized slot can be reassigned by
/// setSpeculationCalibration(), so references into it must not escape.
[[nodiscard]] SpeculationCalibration speculationCalibration();

/// Inject a calibration (tests) or reset to automatic (nullopt).
void setSpeculationCalibration(std::optional<SpeculationCalibration> c);

/// Central auto-mode policy for handing probes to the farm: Force always,
/// Off never; Auto requires more than one configured thread and a graph at
/// or above the calibrated crossover — the size where one probe's repair
/// outweighs one wave-amortized handoff on THIS machine.
[[nodiscard]] bool farmProbesWorthwhile(std::size_t graphSize);

class ProbeFarm {
 public:
  using Edge = TimeFrameOracle::Edge;

  struct Result {
    std::uint64_t version = 0;  ///< committed version the job ran against
    bool ran = false;           ///< false: skipped (stale speculative job)
    bool feasible = false;
    /// A SynthesisError (cycle) raised by the probe, captured on the lane;
    /// the consumer rethrows it at the candidate's turn, in order.
    std::exception_ptr error;
  };

  /// Cheap: the drain tasks (one per pool lane beyond the caller's lane 0)
  /// start on the first ring, and replicas are built lazily on their
  /// lanes — an unprobed farm costs nothing, so consumers construct one
  /// unconditionally and let the candidate stream decide.
  ///
  /// With a `budget`, lanes poll it between slice jobs exactly like the
  /// closing flag: an exhausted budget (or a cancelled token) makes every
  /// lane stop claiming, so a cancelled request drains within one
  /// slice-quantum. Jobs a lane has already claimed still publish — a
  /// claimed-but-silent slot would deadlock the consumer's await.
  ProbeFarm(const Graph& g, int steps, const LatencyModel& model, std::string errorContext,
            const RunBudget* budget = nullptr);
  ~ProbeFarm();

  ProbeFarm(const ProbeFarm&) = delete;
  ProbeFarm& operator=(const ProbeFarm&) = delete;

  /// Total lanes (caller included) — the configured thread count.
  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  /// Number of committed batches (the version speculative jobs race with).
  [[nodiscard]] std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Advance the committed state to version()+1. `committedState` is the
  /// consumer's oracle AFTER pushing and committing the accepted batch:
  /// its snapshot (frames plus the full live edge set) is what replicas
  /// restore to serve jobs at the new version — an O(V) copy instead of
  /// replaying every batch repair per lane.
  void commitBatch(const TimeFrameOracle& committedState);

  /// Collect a probe of `edges` into the pending wave: no lock, no wake.
  /// The job's version is captured NOW (stage and commit share a thread,
  /// so it equals the version at ring() time). The probe may abort at the
  /// first infeasibility; a job whose version went stale before a lane
  /// claimed it is skipped. Returns a ticket.
  std::size_t stage(std::vector<Edge> edges);

  /// Publish the pending wave: one mutex acquisition, one notify_all.
  /// No-op when nothing is staged.
  void ring();

  /// stage() + ring(): a wave of one — the PR-4 per-probe handoff. Kept
  /// as the benchmark baseline the wave handoff is measured against.
  std::size_t enqueue(std::vector<Edge> edges) {
    const std::size_t ticket = stage(std::move(edges));
    ring();
    return ticket;
  }

  /// Block until the ticket resolves. The caller participates: an
  /// unclaimed job runs inline on the caller's replica (lane 0); a claimed
  /// job is spun on briefly, then slept on (the consumer declares itself
  /// blocked so exactly one lane wake is paid). Rings the pending wave
  /// first if the ticket has not been published yet.
  [[nodiscard]] Result await(std::size_t ticket);

  /// Non-blocking: the result if the job already resolved, else nullopt.
  /// Never claims work (used to poll a wave the lanes are draining).
  [[nodiscard]] std::optional<Result> tryResult(std::size_t ticket);

 private:
  /// Per-job lifecycle in a published wave's state array.
  enum JobState : std::uint8_t { kQueued = 0, kClaimed = 1, kDone = 2 };

  struct Job {
    std::vector<Edge> edges;
    std::uint64_t version = 0;
    Result result;  ///< written by the claimer, then state -> kDone
  };

  /// One published wave: a fixed job block with a lock-free claim cursor
  /// and per-job state. Lanes claim `slice` consecutive jobs per
  /// fetch_add; the consumer claims single jobs by CAS when it is blocked
  /// on exactly that verdict.
  struct Wave {
    std::vector<Job> jobs;
    std::unique_ptr<std::atomic<std::uint8_t>[]> state;
    std::atomic<std::uint32_t> cursor{0};
    std::uint32_t slice = 1;

    [[nodiscard]] bool exhausted() const {
      return cursor.load(std::memory_order_relaxed) >= jobs.size();
    }
  };

  struct Replica {
    std::unique_ptr<TimeFrameOracle> oracle;
    std::uint64_t version = 0;  ///< committed version currently restored
  };

  /// Submit the drain tasks (called on the first ring; an unused farm
  /// never touches the pool).
  void startLanes();
  void laneLoop(std::size_t lane);
  /// Claim and run slices of `wave` until its cursor is exhausted.
  void drainWave(Wave& wave, std::size_t lane);
  Result runJob(Replica& rep, const Job& job);
  void syncReplica(Replica& rep, std::uint64_t target);
  /// Lane-side result publication: release the result slot, then wake the
  /// consumer only if it declared itself blocked.
  void publishResult(Wave& wave, std::uint32_t slot, Result r);

  const Graph& g_;
  const int steps_;
  const LatencyModel model_;
  const std::string ctx_;
  const std::size_t lanes_;
  const RunBudget* budget_ = nullptr;  ///< optional; lanes poll between slices

  mutable std::mutex mutex_;
  std::condition_variable workCv_;  ///< lanes: "a wave is published" / closing
  std::condition_variable doneCv_;  ///< consumer: "a result landed" / lane exit
  /// Published waves, in ring order. Guarded by mutex_ for structure; the
  /// Wave blocks themselves are accessed lock-free once discovered.
  std::vector<std::unique_ptr<Wave>> waves_;
  std::size_t firstOpenWave_ = 0;  ///< earliest wave that may have unclaimed jobs
  bool closing_ = false;
  std::atomic<bool> closingFlag_{false};  ///< lanes poll between slice jobs
  std::size_t submittedLanes_ = 0;        ///< drain tasks handed to the pool
  std::size_t exitedLanes_ = 0;           ///< drain tasks that have returned

  /// Dekker-style blocked-consumer flag: the consumer sets it (seq_cst,
  /// under mutex_) before sleeping on doneCv_; lanes load it (seq_cst)
  /// after the kDone store and only then pay the lock+notify.
  std::atomic<bool> consumerWaiting_{false};

  std::atomic<std::uint64_t> version_{0};  ///< committed batches
  /// Per committed version (1-based): the consumer's committed frame
  /// state. Deque: stable refs while appending; entries immutable.
  std::deque<TimeFrameOracle::FrameSnapshot> snapshots_;

  // ---- consumer-thread-only state (never touched by lanes) ----------------
  std::vector<Job> pendingWave_;  ///< staged, not yet published
  /// ticket -> (wave, slot) for every published job, appended by ring().
  std::vector<std::pair<Wave*, std::uint32_t>> published_;

  std::vector<Replica> replicas_;  ///< one per lane; [0] is the caller's
};

}  // namespace pmsched
