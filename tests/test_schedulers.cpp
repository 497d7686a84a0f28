// Tests for the list scheduler and the minimum-resource search.

#include <gtest/gtest.h>

#include "circuits/circuits.hpp"
#include "cdfg/analysis.hpp"
#include "sched/list_scheduler.hpp"

namespace pmsched {
namespace {

TEST(ListScheduler, AbsdiffTwoStepsNeedsTwoSubtractors) {
  const Graph g = circuits::absdiff();
  ResourceVector limits = ResourceVector::unlimited();
  limits.of(ResourceClass::Subtractor) = 1;
  const ListScheduleResult r = listSchedule(g, 2, limits);
  EXPECT_FALSE(r.schedule.has_value());
  EXPECT_EQ(r.blockedOn, ResourceClass::Subtractor);

  limits.of(ResourceClass::Subtractor) = 2;
  const ListScheduleResult ok = listSchedule(g, 2, limits);
  ASSERT_TRUE(ok.schedule.has_value());
  EXPECT_EQ(ok.schedule->unitsRequired(g).of(ResourceClass::Subtractor), 2);
}

TEST(ListScheduler, AbsdiffThreeStepsNeedsOneSubtractor) {
  const Graph g = circuits::absdiff();
  const ResourceVector units = minimizeResources(g, 3);
  EXPECT_EQ(units.of(ResourceClass::Subtractor), 1);
}

TEST(ListScheduler, InfeasibleBudgetReported) {
  const Graph g = circuits::gcd();  // critical path 5
  const ListScheduleResult r = listSchedule(g, 4, ResourceVector::unlimited());
  EXPECT_FALSE(r.schedule.has_value());
  EXPECT_NE(r.message.find("empty time frame"), std::string::npos);
}

TEST(ListScheduler, RespectsControlEdges) {
  Graph g = circuits::absdiff();
  const NodeId cmp = *g.findByName("a_gt_b");
  const NodeId sub1 = *g.findByName("a_minus_b");
  const NodeId sub2 = *g.findByName("b_minus_a");
  g.addControlEdge(cmp, sub1);
  g.addControlEdge(cmp, sub2);

  const ListScheduleResult r = listSchedule(g, 3, ResourceVector::unlimited());
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_LT(r.schedule->stepOf(cmp), r.schedule->stepOf(sub1));
  EXPECT_LT(r.schedule->stepOf(cmp), r.schedule->stepOf(sub2));
}

TEST(ListScheduler, SchedulesValidateOnAllPaperCircuits) {
  for (const auto& circuit : circuits::paperCircuits()) {
    const Graph g = circuit.build();
    for (const int steps : circuits::tableIISteps(circuit.name)) {
      const ResourceVector units = minimizeResources(g, steps);
      const ListScheduleResult r = listSchedule(g, steps, units);
      ASSERT_TRUE(r.schedule.has_value()) << circuit.name << "@" << steps << ": " << r.message;
      EXPECT_NO_THROW(r.schedule->validate(g)) << circuit.name;
      EXPECT_TRUE(r.schedule->unitsRequired(g).fitsWithin(units)) << circuit.name;
    }
  }
}

TEST(ListScheduler, MoreStepsNeverNeedMoreUnits) {
  const UnitCosts costs = UnitCosts::defaults();
  for (const auto& circuit : circuits::paperCircuits()) {
    const Graph g = circuit.build();
    const int cp = criticalPathLength(g);
    double lastCost = 1e18;
    for (int steps = cp; steps <= cp + 3; ++steps) {
      const double cost = costs.costOf(minimizeResources(g, steps, costs));
      EXPECT_LE(cost, lastCost) << circuit.name << "@" << steps;
      lastCost = cost;
    }
  }
}

TEST(ListScheduler, ModuloFoldingBoundsPipelinedUsage) {
  const Graph g = circuits::ewf();  // big dataflow benchmark
  const int cp = criticalPathLength(g);
  const int ii = (cp + 1) / 2;
  const ResourceVector units = minimizeResources(g, cp, UnitCosts::defaults(), ii);
  const ListScheduleResult r = listSchedule(g, cp, units, ii);
  ASSERT_TRUE(r.schedule.has_value()) << r.message;
  EXPECT_TRUE(r.schedule->unitsRequiredModulo(g, ii).fitsWithin(units));
  // Folded usage across stages can only be >= the unfolded requirement.
  const ResourceVector unfolded = r.schedule->unitsRequired(g);
  EXPECT_TRUE(unfolded.fitsWithin(r.schedule->unitsRequiredModulo(g, ii)));
}

TEST(ListScheduler, MinimizeResourcesTerminatesWithGenerousSlack) {
  // Regression: at large budgets the "ran out of steps" path used to blame
  // the class of an unplaced op whose producers were the real bottleneck,
  // growing the wrong limit forever. cordic at CP+8 reproduced the hang.
  const Graph g = circuits::cordic();
  const ResourceVector units = minimizeResources(g, criticalPathLength(g) + 8);
  EXPECT_GE(units.of(ResourceClass::Mux), 1);
  EXPECT_GE(units.of(ResourceClass::Adder), 1);
}

TEST(ListScheduler, MinimizeResourcesTerminatesAcrossWideBudgetSweep) {
  for (const auto& circuit : circuits::paperCircuits()) {
    const Graph g = circuit.build();
    const int cp = criticalPathLength(g);
    for (const int extra : {0, 5, 10, 20})
      EXPECT_NO_THROW((void)minimizeResources(g, cp + extra)) << circuit.name << "+" << extra;
  }
}

TEST(Schedule, ValidateRejectsPrecedenceViolation) {
  const Graph g = circuits::absdiff();
  Schedule bad(g, 3);
  bad.place(*g.findByName("a_gt_b"), 1);
  bad.place(*g.findByName("a_minus_b"), 1);
  bad.place(*g.findByName("b_minus_a"), 1);
  bad.place(*g.findByName("abs_mux"), 1);  // same step as its operands
  EXPECT_THROW(bad.validate(g), SynthesisError);
}

TEST(Schedule, RenderListsEveryStep) {
  const Graph g = circuits::absdiff();
  const ListScheduleResult r = listSchedule(g, 3, ResourceVector::unlimited());
  ASSERT_TRUE(r.schedule.has_value());
  const std::string text = r.schedule->render(g);
  EXPECT_NE(text.find("step 1:"), std::string::npos);
  EXPECT_NE(text.find("step 3:"), std::string::npos);
  EXPECT_NE(text.find("abs_mux"), std::string::npos);
}

}  // namespace
}  // namespace pmsched
