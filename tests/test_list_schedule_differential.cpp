// Differential tests: the event-driven list scheduler must match the
// scan-based scheduler it replaced, kept here verbatim as
// listScheduleReference, on schedule, blockedOn and message — at every
// limits vector the minimum-resource search visits, on the paper circuits
// and on random DFGs up to 512x16, strict and shared designs, with modulo
// folding and multi-cycle operations. The minimizer's returned schedule must
// equal a fresh listSchedule at its returned units.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "cdfg/analysis.hpp"
#include "circuits/circuits.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_transform.hpp"
#include "sched/shared_gating.hpp"
#include "support/random_dfg.hpp"

namespace pmsched {
namespace {

// Sentinel availability for not-yet-placed scheduled nodes: larger than any
// reachable step so consumers are never considered ready prematurely.
constexpr int kNotReady = 1 << 20;

/// The scan-based scheduler: each step rescans every unplaced node for
/// readiness and refreshes the availability of every transparent node.
ListScheduleResult listScheduleReference(const Graph& g, int steps, const ResourceVector& limits,
                                         int ii = 0,
                                         const LatencyModel& model = LatencyModel::unit()) {
  ListScheduleResult result;

  const TimeFrames tf = computeTimeFrames(g, steps, {}, model);
  if (const auto bad = tf.firstInfeasible(g)) {
    result.message = "no schedule in " + std::to_string(steps) + " steps: node '" +
                     g.node(*bad).name + "' has empty time frame";
    return result;
  }

  Schedule sched(g, steps);
  const std::vector<NodeId> order = g.topoOrder();

  // avail[n] = step after which n's value exists; kNotReady until the
  // producing operation is placed (transparent chains propagate it).
  std::vector<int> avail(g.size(), 0);
  for (NodeId n = 0; n < g.size(); ++n)
    if (isScheduled(g.kind(n))) avail[n] = kNotReady;

  auto refreshTransparent = [&] {
    for (const NodeId n : order) {
      if (isScheduled(g.kind(n)) || g.fanins(n).empty()) continue;
      int ready = 0;
      for (const NodeId p : g.fanins(n)) ready = std::max(ready, avail[p]);
      avail[n] = std::min(ready, kNotReady);
    }
  };
  refreshTransparent();

  // usage per step slot and class; folded modulo ii when pipelining.
  const int slots = ii > 0 ? ii : steps;
  std::vector<ResourceVector> usage(static_cast<std::size_t>(slots) + 1);
  auto slotOf = [&](int step) { return ii > 0 ? (step - 1) % ii + 1 : step; };

  // Deferral bookkeeping: when the budget runs out, the class that was
  // actually starved (not the class of whichever op happened to remain)
  // is what the minimum-resource search must grow.
  std::array<int, kNumUnitClasses> deferrals{};

  std::vector<NodeId> todo = g.scheduledNodes();
  // Reused per-step buffers (hoisted out of the loop: the scheduler used to
  // allocate a fresh ready list per step and compact `todo` once per
  // placement instead of once per step).
  std::vector<NodeId> ready;
  ready.reserve(todo.size());
  std::vector<char> placed(g.size(), 0);
  for (int step = 1; step <= steps && !todo.empty(); ++step) {
    ready.clear();
    for (const NodeId n : todo) {
      bool ok = true;
      for (const NodeId p : g.fanins(n))
        if (avail[p] >= step) ok = false;
      for (const NodeId p : g.controlPredecessors(n))
        if (avail[p] >= step) ok = false;
      if (ok) ready.push_back(n);
    }

    std::sort(ready.begin(), ready.end(), [&](NodeId a, NodeId b) {
      if (tf.alap[a] != tf.alap[b]) return tf.alap[a] < tf.alap[b];
      if (tf.asap[a] != tf.asap[b]) return tf.asap[a] < tf.asap[b];
      return a < b;
    });

    bool placedAny = false;
    for (const NodeId n : ready) {
      const ResourceClass rc = resourceClassOf(g.kind(n));
      const int latency = model.latencyOf(g.kind(n));
      // The unit is busy for `latency` consecutive steps (folded when
      // pipelining); all of them must have a free instance.
      bool fits = step + latency - 1 <= steps;
      for (int t = step; fits && t < step + latency; ++t)
        fits = usage[static_cast<std::size_t>(slotOf(t))].of(rc) < limits.of(rc);
      if (fits) {
        for (int t = step; t < step + latency; ++t)
          ++usage[static_cast<std::size_t>(slotOf(t))].of(rc);
        sched.place(n, step);
        avail[n] = step + latency - 1;
        placedAny = true;
        placed[n] = 1;
      } else {
        ++deferrals[unitIndex(rc)];
        if (tf.alap[n] <= step) {
          // A zero-slack operation could not be placed: this resource class
          // is the bottleneck at the current limits.
          result.blockedOn = rc;
          result.message = "resource-blocked at step " + std::to_string(step) + ": node '" +
                           g.node(n).name + "' needs a free " + std::string(resourceName(rc));
          return result;
        }
      }
    }
    if (placedAny) {
      // One order-preserving compaction per step (`todo` order feeds the
      // deterministic blame below, so swap-removal would change messages).
      todo.erase(std::remove_if(todo.begin(), todo.end(),
                                [&](NodeId n) { return placed[n] != 0; }),
                 todo.end());
      refreshTransparent();
    }
  }

  if (!todo.empty()) {
    // Ran out of steps. Blame the class with the most resource deferrals —
    // the unplaced node itself may belong to a class that was never short
    // (it just waited on starved producers).
    const NodeId worst = *std::min_element(todo.begin(), todo.end(), [&](NodeId a, NodeId b) {
      return tf.alap[a] < tf.alap[b];
    });
    result.blockedOn = resourceClassOf(g.kind(worst));
    int most = 0;
    for (std::size_t i = 0; i < kNumUnitClasses; ++i) {
      if (deferrals[i] > most) {
        most = deferrals[i];
        result.blockedOn = kUnitClasses[i];
      }
    }
    result.message = "ran out of steps with " + std::to_string(todo.size()) +
                     " operations unplaced (first: '" + g.node(worst).name + "')";
    return result;
  }

  sched.validate(g, model);
  result.schedule = std::move(sched);
  return result;
}


std::string describe(const ListScheduleResult& r) {
  return r.schedule ? std::string("scheduled") : "failed (" + r.message + ")";
}

void expectSameResult(const Graph& g, const ListScheduleResult& fast,
                      const ListScheduleResult& ref, const std::string& what) {
  ASSERT_EQ(fast.schedule.has_value(), ref.schedule.has_value())
      << what << ": fast " << describe(fast) << ", reference " << describe(ref);
  EXPECT_EQ(fast.blockedOn, ref.blockedOn) << what;
  EXPECT_EQ(fast.message, ref.message) << what;
  if (!ref.schedule) return;
  ASSERT_EQ(fast.schedule->steps(), ref.schedule->steps()) << what;
  for (NodeId n = 0; n < g.size(); ++n)
    ASSERT_EQ(fast.schedule->stepOf(n), ref.schedule->stepOf(n))
        << what << ": node '" << g.node(n).name << "' diverges";
}

void expectSameSchedule(const Graph& g, const Schedule& a, const Schedule& b,
                        const std::string& what) {
  ASSERT_EQ(a.steps(), b.steps()) << what;
  for (NodeId n = 0; n < g.size(); ++n)
    ASSERT_EQ(a.stepOf(n), b.stepOf(n)) << what << ": node '" << g.node(n).name << "'";
}

/// Replays the minimum-resource search with the reference scheduler making
/// every growth decision, and checks the fast scheduler at each limits
/// vector on the way. At the end the minimizer must return the same units,
/// and a schedule equal to both schedulers' run at those units. Returns the
/// number of limits vectors visited.
int checkSearch(const Graph& g, int steps, const std::string& what, int ii = 0,
                const LatencyModel& model = LatencyModel::unit()) {
  const int window = ii > 0 ? std::min(ii, steps) : steps;
  std::array<int, kNumUnitClasses> opCount{};
  for (NodeId n = 0; n < g.size(); ++n) {
    const ResourceClass rc = resourceClassOf(g.kind(n));
    if (rc != ResourceClass::None) ++opCount[unitIndex(rc)];
  }
  ResourceVector limits;
  for (std::size_t i = 0; i < kNumUnitClasses; ++i)
    limits.count[i] = (opCount[i] + window - 1) / window;

  for (int visited = 1;; ++visited) {
    const std::string at = what + " @ limits " + limits.toString();
    const ListScheduleResult ref = listScheduleReference(g, steps, limits, ii, model);
    expectSameResult(g, listSchedule(g, steps, limits, ii, model), ref, at);
    if (::testing::Test::HasFatalFailure()) return visited;

    if (ref.schedule) {
      const ResourceVector units = ii > 0 ? ref.schedule->unitsRequiredModulo(g, ii, model)
                                          : ref.schedule->unitsRequired(g, model);
      const MinimizedSchedule m = minimizeSchedule(g, steps, UnitCosts::defaults(), ii, model);
      EXPECT_EQ(m.units, units) << what << ": " << m.units.toString() << " vs "
                                << units.toString();
      expectSameSchedule(g, m.schedule, *ref.schedule, what + " (minimizer vs search)");
      const ListScheduleResult rerun = listSchedule(g, steps, m.units, ii, model);
      EXPECT_TRUE(rerun.schedule.has_value()) << what << ": " << rerun.message;
      if (rerun.schedule)
        expectSameSchedule(g, m.schedule, *rerun.schedule, what + " (rerun at units)");
      EXPECT_EQ(minimizeResources(g, steps, UnitCosts::defaults(), ii, model), m.units) << what;
      return visited;
    }
    if (ref.blockedOn == ResourceClass::None) {
      EXPECT_THROW((void)minimizeSchedule(g, steps, UnitCosts::defaults(), ii, model),
                   InfeasibleError)
          << what;
      return visited;
    }
    const std::size_t blocked = unitIndex(ref.blockedOn);
    if (limits.count[blocked] < opCount[blocked]) {
      ++limits.count[blocked];
      continue;
    }
    bool grew = false;
    for (std::size_t i = 0; i < kNumUnitClasses; ++i) {
      if (limits.count[i] < opCount[i]) {
        ++limits.count[i];
        grew = true;
      }
    }
    if (!grew) {
      EXPECT_THROW((void)minimizeSchedule(g, steps, UnitCosts::defaults(), ii, model),
                   InfeasibleError)
          << what;
      return visited;
    }
  }
}

/// The design graph the back end sees: the transform's output, optionally
/// with shared gating on top.
Graph designGraph(const Graph& g, int steps, bool shared) {
  PowerManagedDesign design = applyPowerManagement(g, steps);
  if (shared) applySharedGating(design);
  return std::move(design.graph);
}

/// Every built-in circuit: the four paper benchmarks plus the extra HLS
/// workloads.
std::vector<Graph> allCircuits() {
  std::vector<Graph> out;
  for (const auto& entry : circuits::paperCircuits()) out.push_back(entry.build());
  out.push_back(circuits::cordic());
  out.push_back(circuits::diffeq());
  out.push_back(circuits::fir8());
  out.push_back(circuits::arf());
  out.push_back(circuits::ewf());
  return out;
}

TEST(ListScheduleDifferential, PaperCircuitsStrictAndShared) {
  int visited = 0;
  for (const Graph& g : allCircuits()) {
    const int cp = criticalPathLength(g);
    for (const int extra : {0, 1, 2, 8}) {
      const int steps = cp + extra;
      visited += checkSearch(g, steps, g.name() + " plain @" + std::to_string(steps));
      for (const bool shared : {false, true}) {
        const Graph d = designGraph(g, steps, shared);
        visited += checkSearch(d, steps,
                               g.name() + (shared ? " shared @" : " strict @") +
                                   std::to_string(steps));
      }
    }
  }
  EXPECT_GT(visited, 0);
}

TEST(ListScheduleDifferential, RandomLadderStrictAndShared) {
  struct Size {
    int layers;
    int perLayer;
  };
  for (const Size size : {Size{8, 4}, Size{32, 6}, Size{64, 8}, Size{128, 8}}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const Graph g = randomLayeredDfg(size.layers, size.perLayer, seed);
      const int cp = criticalPathLength(g);
      for (const int extra : {0, 1, 2, 8}) {
        const int steps = cp + extra;
        for (const bool shared : {false, true}) {
          const std::string what = std::to_string(size.layers) + "x" +
                                   std::to_string(size.perLayer) + ":" +
                                   std::to_string(seed) + (shared ? " shared @" : " strict @") +
                                   std::to_string(steps);
          checkSearch(designGraph(g, steps, shared), steps, what);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(ListScheduleDifferential, LargeStrictDesign) {
  // The size the one-shot benchmark runs: ~11k operations, ~900 steps.
  const Graph g = randomLayeredDfg(512, 16, 1);
  const int steps = criticalPathLength(g) + 2;
  EXPECT_GE(checkSearch(designGraph(g, steps, false), steps, "512x16:1 strict"), 1);
}

TEST(ListScheduleDifferential, ModuloFolding) {
  std::vector<Graph> graphs = allCircuits();
  graphs.push_back(randomLayeredDfg(32, 6, 3));
  graphs.push_back(randomLayeredDfg(64, 8, 4));
  for (const Graph& g : graphs) {
    const int steps = criticalPathLength(g) + 2;
    for (const int ii : {1, 2, (steps + 1) / 2, steps + 3})
      checkSearch(g, steps, g.name() + " ii=" + std::to_string(ii), ii);
  }
}

TEST(ListScheduleDifferential, TwoCycleMultiplier) {
  const LatencyModel two = LatencyModel::multiCycleMultiplier(2);
  std::vector<Graph> graphs = allCircuits();
  graphs.push_back(randomLayeredDfg(32, 6, 5));
  graphs.push_back(randomLayeredDfg(64, 8, 6));
  for (const Graph& g : graphs) {
    int steps = criticalPathLength(g);
    while (!computeTimeFrames(g, steps, {}, two).feasible(g)) ++steps;
    for (const int extra : {0, 2}) {
      const std::string what = g.name() + " 2-cycle @" + std::to_string(steps + extra);
      checkSearch(g, steps + extra, what, 0, two);
      checkSearch(g, steps + extra, what + " ii=3", 3, two);
    }
  }
}

TEST(ListScheduleDifferential, FixedLimitsAndInfeasibleBudgets) {
  // Outside the search's path: starved limits (zero-slack blame and the
  // out-of-steps blame), unlimited units (ASAP) and budgets below the
  // critical path (empty frames).
  std::vector<Graph> graphs = allCircuits();
  graphs.push_back(randomLayeredDfg(32, 6, 7));
  ResourceVector ones;
  ones.count.fill(1);
  for (const Graph& g : graphs) {
    const int cp = criticalPathLength(g);
    for (const int steps : {cp - 1, cp, cp + 4, 4 * cp}) {
      for (const ResourceVector& limits : {ones, ResourceVector::unlimited(), ResourceVector{}}) {
        const std::string what =
            g.name() + " @" + std::to_string(steps) + " limits " + limits.toString();
        expectSameResult(g, listSchedule(g, steps, limits),
                         listScheduleReference(g, steps, limits), what);
        // Zero-cycle operations complete in the step they start, yet their
        // consumers still wait for the next step.
        const LatencyModel zero{};
        expectSameResult(g, listSchedule(g, steps, limits, 0, zero),
                         listScheduleReference(g, steps, limits, 0, zero), what + " zero-cycle");
      }
    }
  }
}

TEST(ListScheduleDifferential, OutOfStepsBlamesTheMostDeferredClass) {
  // Zero-cycle adders complete in the step they start, yet each consumer
  // still waits for the next step: the chain add1 -> add2 -> add3 fits its
  // frames in one step but needs three, so add3 never arrives within two
  // steps and the run ends out of steps with add3 the worst unplaced node.
  // Meanwhile two multipliers share one unit, so step 1 defers one of them.
  // The blame must go to the deferred class (Multiplier), not to the worst
  // node's class (Adder).
  Graph g("deferral_blame");
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId add1 = g.addOp(OpKind::Add, {a, b}, "add1");
  const NodeId add2 = g.addOp(OpKind::Add, {add1, a}, "add2");
  const NodeId add3 = g.addOp(OpKind::Add, {add2, b}, "add3");
  const NodeId m1 = g.addOp(OpKind::Mul, {a, b}, "m1");
  const NodeId m2 = g.addOp(OpKind::Mul, {b, a}, "m2");
  g.addOutput(add3, "sum");
  g.addOutput(m1, "p1");
  g.addOutput(m2, "p2");

  LatencyModel model = LatencyModel::unit();
  model.cycles[unitIndex(ResourceClass::Adder)] = 0;
  ResourceVector limits;
  limits.count.fill(1);
  const int steps = 2;
  ASSERT_TRUE(computeTimeFrames(g, steps, {}, model).feasible(g));

  const ListScheduleResult fast = listSchedule(g, steps, limits, 0, model);
  expectSameResult(g, fast, listScheduleReference(g, steps, limits, 0, model), "deferral blame");
  ASSERT_FALSE(fast.schedule.has_value());
  EXPECT_EQ(fast.blockedOn, ResourceClass::Multiplier);
  EXPECT_EQ(fast.message, "ran out of steps with 1 operations unplaced (first: 'add3')");
}

}  // namespace
}  // namespace pmsched
