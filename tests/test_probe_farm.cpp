// ProbeFarm: speculative probe verdicts must match from-scratch
// computeTimeFrames() at the version each job ran against, stale rejections
// must stay valid after further commits (monotonicity), and the whole
// protocol must hold under interleaved commit/enqueue stress at several
// thread counts.
//
// PR 5 additions: the batched WAVE handoff (stage/ring/tryResult) must
// deliver results in candidate order and keep a wave-driven sweep
// bit-identical to the plain sequential oracle sweep under multi-wave
// submission interleaved with commits at 1/2/8 threads; and the
// PMSCHED_CALIBRATION override must parse, clamp and reject garbage.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "cdfg/analysis.hpp"
#include "circuits/circuits.hpp"
#include "sched/probe_farm.hpp"
#include "sched/timeframe.hpp"
#include "support/random_dfg.hpp"
#include "support/thread_pool.hpp"

namespace pmsched {
namespace {

using Edge = ProbeFarm::Edge;

/// RAII thread-count override so a failing test cannot leak its setting.
/// Speculation is FORCED (and the previous mode restored on exit) so the
/// farm keeps every configured lane instead of clamping to the hardware —
/// the oversubscription stress below is the point.
struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) : prev_(speculationMode()) {
    setThreadCount(n);
    setSpeculationMode(SpeculationMode::Force);
  }
  ~ScopedThreads() {
    setThreadCount(0);
    setSpeculationMode(prev_);
  }
  SpeculationMode prev_;
};

/// Random acyclic extra edges between scheduled nodes: sources precede
/// targets in the cached topological order.
std::vector<Edge> randomBatch(const Graph& g, std::mt19937_64& rng, int count) {
  const std::vector<NodeId> ops = g.scheduledNodes();
  std::vector<std::uint32_t> pos(g.size());
  const std::span<const NodeId> order = g.topoOrderView();
  for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  std::vector<Edge> batch;
  if (ops.size() < 2) return batch;
  std::uniform_int_distribution<std::size_t> pick(0, ops.size() - 1);
  for (int i = 0; i < count; ++i) {
    NodeId a = ops[pick(rng)];
    NodeId b = ops[pick(rng)];
    if (a == b) continue;
    if (pos[a] > pos[b]) std::swap(a, b);
    batch.emplace_back(a, b);
  }
  return batch;
}

/// Flatten the first `version` committed batches plus a probe batch.
std::vector<Edge> liveEdges(const std::vector<std::vector<Edge>>& log, std::uint64_t version,
                            const std::vector<Edge>& probe) {
  std::vector<Edge> all;
  for (std::uint64_t i = 0; i < version; ++i)
    all.insert(all.end(), log[i].begin(), log[i].end());
  all.insert(all.end(), probe.begin(), probe.end());
  return all;
}

TEST(ProbeFarm, FreshVerdictsMatchFromScratch) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScopedThreads guard(threads);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Graph g = randomLayeredDfg(5, 4, seed);
      const int steps = criticalPathLength(g) + 1;  // tight: rejections likely
      ProbeFarm farm(g, steps, LatencyModel::unit(), "test");
      std::mt19937_64 rng(seed * 13);

      std::vector<std::vector<Edge>> batches;
      std::vector<std::size_t> tickets;
      for (int i = 0; i < 12; ++i) {
        batches.push_back(randomBatch(g, rng, 3));
        tickets.push_back(farm.enqueue(batches.back()));
      }
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        const ProbeFarm::Result r = farm.await(tickets[i]);
        ASSERT_TRUE(r.ran);  // no commits: nothing can go stale
        ASSERT_FALSE(r.error);
        const TimeFrames ref = computeTimeFrames(g, steps, batches[i]);
        ASSERT_EQ(r.feasible, ref.feasible(g))
            << "threads " << threads << " seed " << seed << " batch " << i;
      }
    }
  }
}

TEST(ProbeFarm, InterleavedStaleProbeRevalidationStress) {
  // The stress a speculative sweep produces: waves of speculative probes
  // with commits landing between enqueue and claim, so jobs resolve fresh,
  // stale, or skipped. Every outcome is checked against the from-scratch
  // frames at the version the job reports — including the monotonicity
  // guarantee that a stale rejection is still a rejection at the current
  // version.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ScopedThreads guard(threads);
    for (std::uint64_t seed = 30; seed < 36; ++seed) {
      const Graph g = randomLayeredDfg(6, 4, seed);
      const int steps = criticalPathLength(g) + 2;
      // The consumer's oracle: commits mirror into the farm as snapshots.
      TimeFrameOracle oracle(g, steps);
      ProbeFarm farm(g, steps, LatencyModel::unit(), "stress");
      std::mt19937_64 rng(seed * 31);

      std::vector<std::vector<Edge>> log;  // mirror of the farm's commit log
      struct Pending {
        std::vector<Edge> batch;
        std::size_t ticket;
      };
      std::vector<Pending> pending;

      for (int round = 0; round < 10; ++round) {
        // Enqueue a wave of speculative probes...
        for (int k = 0; k < 4; ++k) {
          Pending p;
          p.batch = randomBatch(g, rng, 2);
          p.ticket = farm.enqueue(p.batch);
          pending.push_back(std::move(p));
        }
        // ...then race a commit against them: find a batch that keeps the
        // committed state feasible and commit it mid-wave.
        for (int attempt = 0; attempt < 8; ++attempt) {
          std::vector<Edge> candidate = randomBatch(g, rng, 1);
          if (computeTimeFrames(g, steps, liveEdges(log, log.size(), candidate)).feasible(g)) {
            log.push_back(candidate);
            oracle.push(candidate);
            oracle.commit();
            farm.commitBatch(oracle);
            break;
          }
        }

        // Drain and verify every outcome against ground truth.
        for (const Pending& p : pending) {
          const ProbeFarm::Result r = farm.await(p.ticket);
          ASSERT_FALSE(r.error);
          if (!r.ran) continue;  // skipped: claimed after the state moved on
          const TimeFrames atRan = computeTimeFrames(g, steps, liveEdges(log, r.version, p.batch));
          ASSERT_EQ(r.feasible, atRan.feasible(g)) << "seed " << seed << " round " << round;
          if (!r.feasible) {
            // Monotonicity: a rejection against an older committed prefix
            // must still be a rejection against the full committed set.
            const TimeFrames now =
                computeTimeFrames(g, steps, liveEdges(log, log.size(), p.batch));
            ASSERT_FALSE(now.feasible(g)) << "seed " << seed << " round " << round;
          }
        }
        pending.clear();
      }
    }
  }
}

TEST(ProbeFarm, CyclicProbeReportsTheErrorWithoutPoisoningTheFarm) {
  ScopedThreads guard(2);
  const Graph g = circuits::absdiff();
  // Farm probes stop at the first over-budget node; a budget far above any
  // acyclic ASAP lets the repair run into the cycle first.
  const int steps = 8 * static_cast<int>(g.size());
  ProbeFarm farm(g, steps, LatencyModel::unit(), "cycle");
  const std::vector<NodeId> ops = g.scheduledNodes();
  ASSERT_GE(ops.size(), 2u);

  const std::size_t bad = farm.enqueue({{ops[0], ops[1]}, {ops[1], ops[0]}});
  const ProbeFarm::Result r = farm.await(bad);
  ASSERT_TRUE(r.ran);
  ASSERT_TRUE(r.error != nullptr);
  EXPECT_THROW(std::rethrow_exception(r.error), SynthesisError);

  // The lane's replica must have unwound cleanly: further probes work.
  const std::size_t ok = farm.enqueue({});
  const ProbeFarm::Result r2 = farm.await(ok);
  ASSERT_TRUE(r2.ran);
  EXPECT_FALSE(r2.error);
  EXPECT_TRUE(r2.feasible);
}

// ---------------------------------------------------------------------------
// PR 5: batched wave handoff.
// ---------------------------------------------------------------------------

TEST(ProbeFarmWaves, ResultsLandInCandidateOrder) {
  // One ring for a whole wave; tickets must map to candidates in stage
  // order and each slot must hold that candidate's own verdict.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScopedThreads guard(threads);
    const Graph g = randomLayeredDfg(5, 4, 7);
    const int steps = criticalPathLength(g) + 1;  // tight: mixed verdicts
    ProbeFarm farm(g, steps, LatencyModel::unit(), "wave-order");
    std::mt19937_64 rng(77);

    std::vector<std::vector<Edge>> batches;
    std::vector<std::size_t> tickets;
    for (int i = 0; i < 24; ++i) {
      batches.push_back(randomBatch(g, rng, 3));
      tickets.push_back(farm.stage(batches.back()));
      ASSERT_EQ(tickets.back(), static_cast<std::size_t>(i));  // stage order == ticket order
    }
    farm.ring();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const ProbeFarm::Result r = farm.await(tickets[i]);
      ASSERT_TRUE(r.ran);  // no commits: nothing can go stale
      ASSERT_FALSE(r.error);
      const TimeFrames ref = computeTimeFrames(g, steps, batches[i]);
      ASSERT_EQ(r.feasible, ref.feasible(g)) << "threads " << threads << " slot " << i;
      // tryResult must agree with the consumed verdict (and is how wave
      // pollers read the lock-free result array).
      const std::optional<ProbeFarm::Result> peek = farm.tryResult(tickets[i]);
      ASSERT_TRUE(peek.has_value());
      EXPECT_EQ(peek->feasible, r.feasible);
    }
  }
}

TEST(ProbeFarmWaves, AwaitRingsAnUnpublishedWave) {
  ScopedThreads guard(2);
  const Graph g = circuits::absdiff();
  const int steps = criticalPathLength(g) + 2;
  ProbeFarm farm(g, steps, LatencyModel::unit(), "auto-ring");
  const std::size_t t = farm.stage({});
  EXPECT_FALSE(farm.tryResult(t).has_value());  // not published yet
  const ProbeFarm::Result r = farm.await(t);    // must not deadlock
  ASSERT_TRUE(r.ran);
  EXPECT_TRUE(r.feasible);
}

TEST(ProbeFarmWaves, MultiWaveCommitInterleavingBitIdenticalToSequentialSweep) {
  // The stress the rewired consumers produce: windows of staged probes
  // rung as one wave each, commits landing mid-stream (which stale the
  // rest of the window), consumption strictly in candidate order under
  // the PR-4 staleness rules. The accept/reject pattern and the final
  // committed frames must be bit-identical to a plain sequential oracle
  // sweep over the same candidates.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScopedThreads guard(threads);
    for (std::uint64_t seed = 50; seed < 56; ++seed) {
      const Graph g = randomLayeredDfg(6, 4, seed);
      const int steps = criticalPathLength(g) + 2;
      std::mt19937_64 rng(seed * 17);
      std::vector<std::vector<Edge>> cands;
      for (int i = 0; i < 28; ++i) cands.push_back(randomBatch(g, rng, 2));
      const std::size_t n = cands.size();

      // Sequential reference sweep.
      TimeFrameOracle seq(g, steps);
      std::vector<bool> refAccept;
      for (const std::vector<Edge>& batch : cands) {
        seq.push(batch);
        if (seq.feasible()) {
          seq.commit();
          refAccept.push_back(true);
        } else {
          seq.pop();
          refAccept.push_back(false);
        }
      }
      TimeFrames refFrames = seq.frames();

      // Wave sweep: windows of 6 staged candidates, one ring per window.
      TimeFrameOracle oracle(g, steps);
      ProbeFarm farm(g, steps, LatencyModel::unit(), "wave-sweep");
      std::vector<bool> accept(n, false);
      std::vector<std::size_t> ticket(n, kNone);
      std::size_t horizon = 0;
      std::size_t i = 0;
      while (i < n) {
        if (horizon <= i) {
          for (horizon = i; horizon < std::min(i + 6, n); ++horizon)
            ticket[horizon] = farm.stage(cands[horizon]);
          farm.ring();
        }
        for (; i < horizon; ++i) {
          const ProbeFarm::Result r = farm.await(ticket[i]);
          ASSERT_FALSE(r.error);
          bool ok;
          if (r.ran && r.version == farm.version()) {
            ok = r.feasible;  // fresh: use as-is
            if (ok) {
              oracle.push(cands[i]);
              ASSERT_TRUE(oracle.feasible());  // fresh verdicts cannot diverge
              oracle.commit();
              farm.commitBatch(oracle);
            }
          } else if (r.ran && !r.feasible) {
            ok = false;  // stale reject: still a reject (monotonicity)
          } else {
            // Skipped or stale-feasible: re-validate inline, exactly the
            // sequential cost for this one candidate.
            oracle.push(cands[i]);
            ok = oracle.feasible();
            if (ok) {
              oracle.commit();
              farm.commitBatch(oracle);
            } else {
              oracle.pop();
            }
          }
          accept[i] = ok;
          ASSERT_EQ(accept[i], refAccept[i])
              << "threads " << threads << " seed " << seed << " candidate " << i;
          if (ok) {  // the commit staled the rest of the window: re-stage
            ++i;
            break;
          }
        }
      }
      TimeFrames waveFrames = oracle.frames();
      ASSERT_EQ(waveFrames.asap, refFrames.asap) << "threads " << threads << " seed " << seed;
      ASSERT_EQ(waveFrames.alap, refFrames.alap) << "threads " << threads << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// PR 5: speculation self-calibration (PMSCHED_CALIBRATION).
// ---------------------------------------------------------------------------

TEST(SpeculationCalibrationTest, ParseAcceptsHandoffCommaRepair) {
  const std::optional<SpeculationCalibration> cal = parseCalibration("25000,50");
  ASSERT_TRUE(cal.has_value());
  EXPECT_DOUBLE_EQ(cal->handoffNs, 25000.0);
  EXPECT_DOUBLE_EQ(cal->repairNsPerNode, 50.0);
  EXPECT_FALSE(cal->measured);
  EXPECT_EQ(cal->crossoverNodes(), 500u);
  // Scientific notation and fractions are plain strtod business.
  const std::optional<SpeculationCalibration> sci = parseCalibration("1e5,0.5");
  ASSERT_TRUE(sci.has_value());
  EXPECT_DOUBLE_EQ(sci->handoffNs, 1e5);
  EXPECT_DOUBLE_EQ(sci->repairNsPerNode, 0.5);
}

TEST(SpeculationCalibrationTest, ParseClampsToSaneRanges) {
  const std::optional<SpeculationCalibration> lo = parseCalibration("0.0001,0.0000001");
  ASSERT_TRUE(lo.has_value());
  EXPECT_DOUBLE_EQ(lo->handoffNs, 1.0);        // floor: 1 ns
  EXPECT_DOUBLE_EQ(lo->repairNsPerNode, 1e-3);  // floor: 1e-3 ns/node
  const std::optional<SpeculationCalibration> hi = parseCalibration("1e18,1e12");
  ASSERT_TRUE(hi.has_value());
  EXPECT_DOUBLE_EQ(hi->handoffNs, 1e9);        // cap: 1 s
  EXPECT_DOUBLE_EQ(hi->repairNsPerNode, 1e6);  // cap: 1 ms/node
}

TEST(SpeculationCalibrationTest, ParseRejectsGarbage) {
  for (const char* bad : {"", "fast", "100", "100,", ",50", "100,abc", "100,50,2",
                          "-5,50", "100,-1", "0,50", "100,0", "nan,50", "100,nan",
                          "inf,50", "100 50", "1e999,50"}) {
    EXPECT_FALSE(parseCalibration(bad).has_value()) << "accepted garbage: '" << bad << "'";
  }
}

TEST(SpeculationCalibrationTest, CrossoverClampsAndHandlesDegenerateRepair) {
  SpeculationCalibration cal;
  cal.handoffNs = 1e12;  // the "no usable second lane" sentinel
  cal.repairNsPerNode = 50;
  EXPECT_EQ(cal.crossoverNodes(), std::size_t{1} << 22);  // ceiling
  cal.handoffNs = 1;
  cal.repairNsPerNode = 1e6;
  EXPECT_EQ(cal.crossoverNodes(), 64u);  // floor
  cal.repairNsPerNode = 0;  // not producible by parse; defensive
  EXPECT_EQ(cal.crossoverNodes(), std::size_t{1} << 22);
}

TEST(SpeculationCalibrationTest, AutoModeComparesGraphAgainstInjectedCrossover) {
  const SpeculationMode prevMode = speculationMode();
  setThreadCount(4);
  setSpeculationMode(SpeculationMode::Auto);
  SpeculationCalibration cal;
  cal.handoffNs = 100000;     // 100 us amortized handoff
  cal.repairNsPerNode = 100;  // -> crossover at 1000 nodes
  cal.measured = true;
  setSpeculationCalibration(cal);

  EXPECT_FALSE(farmProbesWorthwhile(999));
  EXPECT_TRUE(farmProbesWorthwhile(1000));
  setThreadCount(1);
  EXPECT_FALSE(farmProbesWorthwhile(1 << 20));  // one thread never farms
  setThreadCount(4);
  setSpeculationMode(SpeculationMode::Force);
  EXPECT_TRUE(farmProbesWorthwhile(1));  // force ignores the calibration
  setSpeculationMode(SpeculationMode::Off);
  EXPECT_FALSE(farmProbesWorthwhile(1 << 20));

  setSpeculationCalibration(std::nullopt);
  setSpeculationMode(prevMode);
  setThreadCount(0);
}

}  // namespace
}  // namespace pmsched
