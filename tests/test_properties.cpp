// Property-based tests: invariants that must hold over randomly generated
// CDFGs, swept with parameterized gtest. These guard the interactions
// between the transform, the schedulers, the analysis, and the gate-level
// machine on inputs nobody hand-picked.

#include <gtest/gtest.h>

#include "alloc/binding.hpp"
#include "analysis/experiments.hpp"
#include "rtl/power_harness.hpp"
#include "sched/shared_gating.hpp"
#include "support/rng.hpp"

namespace pmsched {
namespace {

/// Random conditional DFG: layered, with muxes and occasional multipliers.
Graph randomGraph(std::uint64_t seed, int layers, int perLayer) {
  Rng rng(seed);
  Graph g("rand" + std::to_string(seed));
  std::vector<NodeId> pool;
  for (int i = 0; i < perLayer; ++i) pool.push_back(g.addInput("in" + std::to_string(i)));

  int counter = 0;
  std::vector<NodeId> lastLayer = pool;
  for (int layer = 0; layer < layers; ++layer) {
    std::vector<NodeId> current;
    for (int i = 0; i < perLayer; ++i) {
      const NodeId a = pool[rng.below(pool.size())];
      const NodeId b = pool[rng.below(pool.size())];
      const std::string name = std::string("n").append(std::to_string(counter++));
      NodeId made = kInvalidNode;
      switch (rng.below(6)) {
        case 0: {
          const NodeId c = pool[rng.below(pool.size())];
          const NodeId d = pool[rng.below(pool.size())];
          const NodeId cmp = g.addOp(OpKind::CmpGt, {c, d}, name + "_c");
          made = g.addMux(cmp, a, b, name);
          break;
        }
        case 1: made = g.addOp(OpKind::Mul, {a, b}, name); break;
        case 2: made = g.addOp(OpKind::Sub, {a, b}, name); break;
        default: made = g.addOp(OpKind::Add, {a, b}, name); break;
      }
      current.push_back(made);
      pool.push_back(made);
    }
    lastLayer = current;
  }
  for (std::size_t i = 0; i < lastLayer.size(); ++i)
    g.addOutput(lastLayer[i], "out" + std::to_string(i));
  g.validate();
  return g;
}

class RandomGraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphProperty, TransformKeepsFramesFeasibleAndGraphAcyclic) {
  const Graph g = randomGraph(GetParam(), 4, 5);
  const int cp = criticalPathLength(g);
  for (const int slack : {0, 2, 5}) {
    PowerManagedDesign design = applyPowerManagement(g, cp + slack);
    applySharedGating(design);
    EXPECT_NO_THROW(design.graph.topoOrder());
    EXPECT_TRUE(design.frames.feasible(design.graph));
  }
}

TEST_P(RandomGraphProperty, PowerManagementNeverIncreasesExpectedPower) {
  const Graph g = randomGraph(GetParam(), 4, 5);
  const int cp = criticalPathLength(g);
  const OpPowerModel model = OpPowerModel::paperWeights();

  double lastReduction = -1;
  for (const int slack : {0, 1, 3, 6}) {
    PowerManagedDesign design = applyPowerManagement(g, cp + slack);
    applySharedGating(design);
    const double reduction = analyzeActivation(design).reductionPercent(model);
    EXPECT_GE(reduction, -1e-9);
    // More slack can only help the greedy transform on the same graph —
    // not guaranteed in general (greedy), but expected to hold in practice;
    // assert the weaker invariant that reduction stays non-negative and
    // track monotonicity violations as real failures only when drastic.
    if (reduction + 5.0 < lastReduction)
      ADD_FAILURE() << "reduction collapsed with more slack: " << lastReduction << " -> "
                    << reduction;
    lastReduction = std::max(lastReduction, reduction);
  }
}

TEST_P(RandomGraphProperty, ScheduleRespectsEverything) {
  const Graph g = randomGraph(GetParam(), 4, 5);
  const int steps = criticalPathLength(g) + 3;
  PowerManagedDesign design = applyPowerManagement(g, steps);
  applySharedGating(design);

  const ResourceVector units = minimizeResources(design.graph, steps);
  const ListScheduleResult r = listSchedule(design.graph, steps, units);
  ASSERT_TRUE(r.schedule.has_value()) << r.message;
  EXPECT_NO_THROW(r.schedule->validate(design.graph));

  // Gated nodes run strictly after every select in their condition.
  const ActivationResult activation = analyzeActivation(design);
  for (NodeId n = 0; n < design.graph.size(); ++n) {
    if (!isScheduled(design.graph.kind(n))) continue;
    for (const GateTerm& term : activation.condition(n)) {
      for (const GateLiteral& lit : term) {
        if (!isScheduled(design.graph.kind(lit.select))) continue;
        EXPECT_LT(r.schedule->stepOf(lit.select), r.schedule->stepOf(n))
            << design.graph.node(n).name;
      }
    }
  }
}

TEST_P(RandomGraphProperty, ActivationProbabilitiesAreSound) {
  const Graph g = randomGraph(GetParam(), 4, 5);
  PowerManagedDesign design = applyPowerManagement(g, criticalPathLength(g) + 4);
  applySharedGating(design);
  const ActivationResult activation = analyzeActivation(design);

  for (NodeId n = 0; n < design.graph.size(); ++n) {
    EXPECT_GE(activation.probability[n], Rational(0));
    EXPECT_LE(activation.probability[n], Rational(1));
    // Outputs' producers must always execute.
    if (design.graph.kind(n) == OpKind::Output) {
      NodeId src = design.graph.fanins(n)[0];
      while (design.graph.kind(src) == OpKind::Wire) src = design.graph.fanins(src)[0];
      EXPECT_EQ(activation.probability[src], Rational(1))
          << design.graph.node(src).name;
    }
  }
}

TEST_P(RandomGraphProperty, MonteCarloAgreesWithExactActivation) {
  // Simulate the mux-select coin flips and compare observed execution
  // frequencies against the exact probabilities.
  const Graph g = randomGraph(GetParam(), 3, 4);
  PowerManagedDesign design = applyPowerManagement(g, criticalPathLength(g) + 3);
  applySharedGating(design);
  const ActivationResult activation = analyzeActivation(design);

  // Collect the distinct select signals involved.
  std::vector<NodeId> selects;
  for (NodeId n = 0; n < design.graph.size(); ++n)
    for (const GateTerm& term : activation.condition(n))
      for (const GateLiteral& lit : term)
        if (std::find(selects.begin(), selects.end(), lit.select) == selects.end())
          selects.push_back(lit.select);
  if (selects.empty()) return;
  ASSERT_LE(selects.size(), 16u);

  std::vector<double> observed(design.graph.size(), 0);
  const int kTrials = 1 << 14;
  Rng rng(GetParam() * 977 + 1);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::uint64_t assignment = rng.next();
    auto valueOf = [&](NodeId sel) {
      const auto idx = static_cast<std::size_t>(
          std::find(selects.begin(), selects.end(), sel) - selects.begin());
      return ((assignment >> idx) & 1U) != 0;
    };
    for (NodeId n = 0; n < design.graph.size(); ++n) {
      bool active = false;
      for (const GateTerm& term : activation.condition(n)) {
        bool termSat = true;
        for (const GateLiteral& lit : term)
          if (valueOf(lit.select) != lit.value) termSat = false;
        if (termSat) {
          active = true;
          break;
        }
      }
      if (active) observed[n] += 1.0 / kTrials;
    }
  }
  for (NodeId n = 0; n < design.graph.size(); ++n) {
    if (!isScheduled(design.graph.kind(n))) continue;
    EXPECT_NEAR(observed[n], activation.probability[n].toDouble(), 0.02)
        << design.graph.node(n).name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class RandomRtlProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomRtlProperty, GateLevelMachineMatchesInterpreter) {
  const Graph g = randomGraph(GetParam(), 3, 3);
  const int steps = criticalPathLength(g) + 2;
  PowerManagedDesign design = applyPowerManagement(g, steps);
  applySharedGating(design);

  const ResourceVector units = minimizeResources(design.graph, steps);
  const auto sched = listSchedule(design.graph, steps, units);
  ASSERT_TRUE(sched.schedule.has_value());
  const Binding binding = bindDesign(design.graph, *sched.schedule);
  const ActivationResult activation = analyzeActivation(design);
  const RtlDesign rtl =
      mapDesign(design, *sched.schedule, binding, activation, RtlOptions{true});

  Rng rng(GetParam() + 1000);
  const RtlPowerResult result = measurePower(rtl, design.graph, 25, rng, true);
  EXPECT_EQ(result.functionalMismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRtlProperty, ::testing::Values(7, 17, 27, 37, 47));

}  // namespace
}  // namespace pmsched
