// Differential tests for the oracle-backed power-management paths: the
// incremental transform, exact search, and shared gating must produce
// bit-identical designs (managed sets, gated sets, control edges, frames,
// resolved conditions) to the from-scratch references kept in
// power_transform_reference.hpp and shared_gating_reference.hpp. The
// incremental transform's slack rejects name no node; once
// nameSlackRejects() has replayed them, their reasons must match the
// reference's too.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdfg/analysis.hpp"
#include "circuits/circuits.hpp"
#include "sched/power_transform.hpp"
#include "power_transform_reference.hpp"
#include "sched/shared_gating.hpp"
#include "shared_gating_reference.hpp"
#include "support/random_dfg.hpp"
#include "support/run_budget.hpp"

namespace pmsched {
namespace {

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

std::vector<NodeId> asVector(std::span<const NodeId> ids) {
  return std::vector<NodeId>(ids.begin(), ids.end());
}

void expectDesignsEqual(const PowerManagedDesign& a, const PowerManagedDesign& b,
                        const std::string& what) {
  ASSERT_EQ(a.steps, b.steps) << what;
  ASSERT_EQ(a.muxes.size(), b.muxes.size()) << what;
  for (std::size_t i = 0; i < a.muxes.size(); ++i) {
    const MuxPmInfo& ma = a.muxes[i];
    const MuxPmInfo& mb = b.muxes[i];
    ASSERT_EQ(ma.mux, mb.mux) << what;
    ASSERT_EQ(ma.managed, mb.managed) << what << ": mux " << ma.mux;
    ASSERT_EQ(ma.reason, mb.reason) << what << ": mux " << ma.mux;
    ASSERT_EQ(ma.lastControl, mb.lastControl) << what << ": mux " << ma.mux;
    ASSERT_EQ(ma.gatedTrue, mb.gatedTrue) << what << ": mux " << ma.mux;
    ASSERT_EQ(ma.gatedFalse, mb.gatedFalse) << what << ": mux " << ma.mux;
    ASSERT_EQ(ma.topTrue, mb.topTrue) << what << ": mux " << ma.mux;
    ASSERT_EQ(ma.topFalse, mb.topFalse) << what << ": mux " << ma.mux;
  }
  ASSERT_EQ(a.frames.asap, b.frames.asap) << what;
  ASSERT_EQ(a.frames.alap, b.frames.alap) << what;
  ASSERT_EQ(a.graph.size(), b.graph.size()) << what;
  ASSERT_EQ(a.graph.controlEdgeCount(), b.graph.controlEdgeCount()) << what;
  for (NodeId n = 0; n < a.graph.size(); ++n) {
    ASSERT_EQ(asVector(a.graph.controlPredecessors(n)), asVector(b.graph.controlPredecessors(n)))
        << what << ": control preds of node " << n;
    ASSERT_EQ(a.sharedGating[n], b.sharedGating[n]) << what << ": shared gating of " << n;
    ASSERT_EQ(a.gates[n].size(), b.gates[n].size()) << what << ": gates of " << n;
    for (std::size_t k = 0; k < a.gates[n].size(); ++k) {
      ASSERT_EQ(a.gates[n][k].mux, b.gates[n][k].mux) << what;
      ASSERT_EQ(a.gates[n][k].side, b.gates[n][k].side) << what;
    }
  }
  // Resolved activation conditions compose gates and shared gating; their
  // equality seals the full downstream-visible state.
  const ConditionTable condA = resolveActivationConditions(a);
  const ConditionTable condB = resolveActivationConditions(b);
  for (NodeId n = 0; n < a.graph.size(); ++n)
    ASSERT_EQ(condA.of(n), condB.of(n)) << what << ": condition of node " << n;
}

/// Slack rejects the incremental transform left unnamed, and the orderings
/// every transform is compared under.
constexpr std::string_view kUnnamedSlackReason = "insufficient slack";
constexpr MuxOrdering kOrderings[] = {MuxOrdering::OutputFirst, MuxOrdering::InputFirst,
                                      MuxOrdering::BySavings};

/// applyPowerManagement against the reference at one point: every slack
/// reject the reference names is unnamed in the incremental design, every
/// other reason matches as is, and after nameSlackRejects() the whole
/// designs match. Adds the point's slack rejects to `rejects`.
void expectGreedyMatchesReference(const Graph& g, int steps, MuxOrdering ordering,
                                  const LatencyModel& model, const std::string& what,
                                  int& rejects) {
  PowerManagedDesign fast = applyPowerManagement(g, steps, ordering, model);
  const PowerManagedDesign ref = applyPowerManagementReference(g, steps, ordering, model);
  ASSERT_EQ(fast.muxes.size(), ref.muxes.size()) << what;
  for (std::size_t i = 0; i < ref.muxes.size(); ++i) {
    const std::string& want = ref.muxes[i].reason;
    if (want.starts_with(std::string(kUnnamedSlackReason) + ": ")) {
      ASSERT_EQ(fast.muxes[i].reason, kUnnamedSlackReason) << what << ": mux " << i;
      ++rejects;
    } else {
      ASSERT_EQ(fast.muxes[i].reason, want) << what << ": mux " << i;
    }
  }
  nameSlackRejects(g, fast);
  expectDesignsEqual(fast, ref, what);
}

std::string orderingName(MuxOrdering ordering) {
  switch (ordering) {
    case MuxOrdering::OutputFirst: return "output";
    case MuxOrdering::InputFirst: return "input";
    case MuxOrdering::BySavings: return "savings";
  }
  return "?";
}

TEST(PowerTransformDifferential, GreedyMatchesReferenceOnCircuits) {
  // Every ordering, at the critical path and above it, plus the paper
  // circuits' Table II budgets.
  int rejects = 0;
  for (const Graph& g : allCircuits()) {
    const int cp = criticalPathLength(g);
    std::vector<int> budgets{cp, cp + 1, cp + 3};
    for (const auto& entry : circuits::paperCircuits())
      if (g.name() == entry.name)
        for (const int steps : circuits::tableIISteps(entry.name)) budgets.push_back(steps);
    for (const MuxOrdering ordering : kOrderings)
      for (const int steps : budgets) {
        expectGreedyMatchesReference(
            g, steps, ordering, LatencyModel::unit(),
            g.name() + " @" + std::to_string(steps) + " " + orderingName(ordering), rejects);
        if (HasFailure()) return;
      }
  }
  EXPECT_GT(rejects, 10);
}

TEST(PowerTransformDifferential, GreedyMatchesReferenceOnRandomDfgs) {
  int rejects = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const Graph g = randomLayeredDfg(3 + static_cast<int>(seed % 6), 4, seed);
    const int cp = criticalPathLength(g);
    for (const int slack : {0, 1, 4}) {
      const std::string what = "seed " + std::to_string(seed) + " @" + std::to_string(cp + slack);
      expectGreedyMatchesReference(g, cp + slack, MuxOrdering::OutputFirst, LatencyModel::unit(),
                                   what, rejects);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(rejects, 0);
}

TEST(PowerTransformDifferential, GreedyMatchesReferenceAtRealisticSizes) {
  // The verdicts on the graph sizes the one-shot benchmark runs, under
  // every ordering: every accept, every reject and every replayed reason
  // node must match the from-scratch reference, from a tight budget to a
  // loose one. The reference costs a frame computation per mux, so 512x16
  // takes the other orderings at the benchmark's cp+2 only.
  struct Size {
    int layers;
    int perLayer;
  };
  int rejects = 0;
  for (const Size size : {Size{32, 6}, Size{64, 8}, Size{128, 8}, Size{256, 16}, Size{512, 16}}) {
    const Graph g = randomLayeredDfg(size.layers, size.perLayer, 1);
    const int cp = criticalPathLength(g);
    for (const MuxOrdering ordering : kOrderings)
      for (const int slack : {0, 2, 8}) {
        if (size.layers == 512 && ordering != MuxOrdering::OutputFirst && slack != 2) continue;
        const std::string what = std::to_string(size.layers) + "x" +
                                 std::to_string(size.perLayer) + " @cp+" +
                                 std::to_string(slack) + " " + orderingName(ordering);
        expectGreedyMatchesReference(g, cp + slack, ordering, LatencyModel::unit(), what,
                                     rejects);
        if (HasFailure()) return;
      }
  }
  EXPECT_GT(rejects, 100);
}

/// Fewest steps at which `g` schedules under `model`.
int fewestSteps(const Graph& g, const LatencyModel& model) {
  int steps = criticalPathLength(g);
  while (!computeTimeFrames(g, steps, {}, model).feasible(g)) ++steps;
  return steps;
}

TEST(PowerTransformDifferential, MultiCycleModelMatchesReference) {
  const LatencyModel model = LatencyModel::multiCycleMultiplier(2);
  int rejects = 0;
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const Graph g = randomLayeredDfg(5, 4, seed);
    for (const int steps : {criticalPathLength(g) * 2 + 3, fewestSteps(g, model)}) {
      expectGreedyMatchesReference(g, steps, MuxOrdering::OutputFirst, model,
                                   "multi-cycle seed " + std::to_string(seed) + " @" +
                                       std::to_string(steps),
                                   rejects);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(rejects, 0);
}

TEST(PowerTransformDifferential, OptimalMatchesReference) {
  for (const Graph& g : allCircuits()) {
    const int steps = criticalPathLength(g) + 2;
    expectDesignsEqual(applyPowerManagementOptimal(g, steps),
                       applyPowerManagementOptimalReference(g, steps),
                       g.name() + " optimal");
  }
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    const Graph g = randomLayeredDfg(4 + static_cast<int>(seed % 3), 4, seed);
    const int steps = criticalPathLength(g) + 2;
    expectDesignsEqual(applyPowerManagementOptimal(g, steps),
                       applyPowerManagementOptimalReference(g, steps),
                       "optimal seed " + std::to_string(seed));
  }
}

/// Shared gating against the reference from equal transformed designs:
/// the same gated count and slack-reject count, then equal designs. Adds
/// the point's slack rejects to `rejects`.
void expectSharedGatingMatchesReference(PowerManagedDesign fast, PowerManagedDesign ref,
                                        const std::string& what, int& rejects) {
  int rejectsFast = -1;
  int rejectsRef = -1;
  const int gatedFast = applySharedGating(fast, nullptr, &rejectsFast);
  const int gatedRef = applySharedGatingReference(ref, &rejectsRef);
  ASSERT_EQ(gatedFast, gatedRef) << what;
  ASSERT_EQ(rejectsFast, rejectsRef) << what;
  rejects += rejectsRef;
  expectDesignsEqual(fast, ref, what + " (after shared gating)");
}

TEST(SharedGatingDifferential, MatchesReferenceOnCircuitsAndRandomDfgs) {
  int rejects = 0;
  auto check = [&](const Graph& g, int steps, MuxOrdering ordering, const std::string& what) {
    PowerManagedDesign fast = applyPowerManagement(g, steps, ordering);
    nameSlackRejects(g, fast);
    expectSharedGatingMatchesReference(std::move(fast),
                                       applyPowerManagementReference(g, steps, ordering), what,
                                       rejects);
  };
  for (const Graph& g : allCircuits()) {
    check(g, criticalPathLength(g) + 2, MuxOrdering::OutputFirst, g.name() + " shared gating");
    if (HasFailure()) return;
  }
  for (std::uint64_t seed = 70; seed < 80; ++seed) {
    const Graph g = randomLayeredDfg(5, 4, seed);
    check(g, criticalPathLength(g) + 3, MuxOrdering::OutputFirst,
          "shared gating seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
  // Candidates whose selects sit in several places of the graph: a cycle
  // check that searched only for the first of them gates a node whose
  // batch closes a cycle.
  const Graph g = randomLayeredDfg(8, 4, 3);
  for (const MuxOrdering ordering : {MuxOrdering::OutputFirst, MuxOrdering::InputFirst}) {
    check(g, 22, ordering, "8x4 seed 3 @22 " + orderingName(ordering));
    if (HasFailure()) return;
  }
  EXPECT_GT(rejects, 0);
}

TEST(SharedGatingDifferential, MatchesReferenceAtRealisticSizes) {
  // Shared gating alone, on the graph sizes the server and the benchmark
  // see: both passes start from the same transformed design, so every
  // accept, reject, added control edge and frame is the pass's own.
  struct Size {
    int layers;
    int perLayer;
    std::uint64_t seeds;
  };
  int rejects = 0;
  for (const Size size :
       {Size{32, 6, 3}, Size{64, 8, 3}, Size{128, 8, 3}, Size{256, 16, 1}, Size{512, 16, 1}}) {
    for (std::uint64_t seed = 1; seed <= size.seeds; ++seed) {
      const Graph g = randomLayeredDfg(size.layers, size.perLayer, seed);
      const int cp = criticalPathLength(g);
      for (const int slack : {0, 2, 8}) {
        const std::string what = std::to_string(size.layers) + "x" +
                                 std::to_string(size.perLayer) + " seed " +
                                 std::to_string(seed) + " @cp+" + std::to_string(slack);
        const PowerManagedDesign start = applyPowerManagement(g, cp + slack);
        expectSharedGatingMatchesReference(start, start, what, rejects);
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(rejects, 0);
}

TEST(CommittedFrames, EqualFromScratchFramesAfterEveryPass) {
  // The design job hands design.frames to the resource search instead of
  // recomputing them, so after the greedy, exact and shared passes -- a
  // budget-stopped run included -- they must be exactly the from-scratch
  // frames of the design graph at its budget.
  const auto expectFromScratch = [](const PowerManagedDesign& d, const std::string& what) {
    const TimeFrames tf = computeTimeFrames(d.graph, d.steps, {}, d.latency);
    ASSERT_EQ(d.frames.steps, tf.steps) << what;
    ASSERT_EQ(d.frames.asap, tf.asap) << what;
    ASSERT_EQ(d.frames.alap, tf.alap) << what;
  };
  const Graph g = randomLayeredDfg(256, 16, 1);
  const int cp = criticalPathLength(g);
  for (const int slack : {0, 2, 8}) {
    const std::string at = "256x16 @cp+" + std::to_string(slack);
    for (const MuxOrdering ordering : kOrderings) {
      PowerManagedDesign greedy = applyPowerManagement(g, cp + slack, ordering);
      ASSERT_GT(greedy.graph.controlEdgeCount(), 0u) << at;
      expectFromScratch(greedy, at + " greedy " + orderingName(ordering));
      (void)applySharedGating(greedy);
      expectFromScratch(greedy, at + " greedy+shared " + orderingName(ordering));
    }
    PowerManagedDesign optimal = applyPowerManagementOptimal(g, cp + slack);
    expectFromScratch(optimal, at + " optimal");
    (void)applySharedGating(optimal);
    expectFromScratch(optimal, at + " optimal+shared");

    RunBudget budget;
    budget.setProbeCap(40);
    PowerManagedDesign stopped =
        applyPowerManagement(g, cp + slack, MuxOrdering::OutputFirst, LatencyModel::unit(),
                             &budget);
    ASSERT_TRUE(stopped.degraded) << at;
    expectFromScratch(stopped, at + " budget-stopped greedy");
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace pmsched
