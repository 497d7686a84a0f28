// Tests for the activation analysis: exact execution probabilities under
// nested, shared, and conflicting gating.

#include <gtest/gtest.h>

#include "circuits/circuits.hpp"
#include "power/activation.hpp"
#include "sched/shared_gating.hpp"

namespace pmsched {
namespace {

TEST(Activation, UngatedNodesExecuteAlways) {
  const Graph g = circuits::absdiff();
  const ActivationResult r = analyzeActivation(unmanagedDesign(g, 3));
  for (const NodeId n : g.scheduledNodes()) EXPECT_EQ(r.probability[n], Rational(1));
  EXPECT_EQ(r.averageOf(ResourceClass::Subtractor), Rational(2));
}

TEST(Activation, SingleGateIsHalf) {
  const Graph g = circuits::absdiff();
  const ActivationResult r = analyzeActivation(applyPowerManagement(g, 3));
  EXPECT_EQ(r.probability[*g.findByName("a_minus_b")], Rational(1, 2));
  EXPECT_EQ(r.probability[*g.findByName("b_minus_a")], Rational(1, 2));
  EXPECT_EQ(r.probability[*g.findByName("abs_mux")], Rational(1));
  EXPECT_EQ(r.averageOf(ResourceClass::Subtractor), Rational(1));
}

TEST(Activation, NestedGatingMultiplies) {
  const Graph g = circuits::gcd();
  PowerManagedDesign design = applyPowerManagement(g, 7);
  const ActivationResult r = analyzeActivation(design);
  // d is gated by b_wb (start) and b_inner (eq): 1/4.
  EXPECT_EQ(r.probability[*design.graph.findByName("d")], Rational(1, 4));
  // b_inner is gated by b_wb only: 1/2.
  EXPECT_EQ(r.probability[*design.graph.findByName("b_inner")], Rational(1, 2));
}

TEST(Activation, SameSelectLiteralsMerge) {
  // Two nested muxes driven by the SAME comparator: the inner node's
  // condition is one literal, probability 1/2 (not 1/4).
  Graph g;
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId c = g.addOp(OpKind::CmpGt, {a, b}, "c");
  const NodeId t = g.addOp(OpKind::Add, {a, b}, "t");
  const NodeId inner = g.addMux(c, t, b, "inner");
  const NodeId outer = g.addMux(c, inner, a, "outer");
  g.addOutput(outer, "out");

  const PowerManagedDesign design = applyPowerManagement(g, 4);
  const ActivationResult r = analyzeActivation(design);
  EXPECT_EQ(r.probability[inner], Rational(1, 2));
  EXPECT_EQ(r.probability[t], Rational(1, 2));  // (c=1) & (c=1) merges
}

TEST(Activation, ContradictoryNestingIsDeadCode) {
  // inner selected when c=1 inside outer's FALSE side (c=0): never needed.
  Graph g;
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId c = g.addOp(OpKind::CmpGt, {a, b}, "c");
  const NodeId t = g.addOp(OpKind::Add, {a, b}, "t");
  const NodeId inner = g.addMux(c, t, b, "inner");
  const NodeId outer = g.addMux(c, a, inner, "outer");
  g.addOutput(outer, "out");

  const PowerManagedDesign design = applyPowerManagement(g, 4);
  const ActivationResult r = analyzeActivation(design);
  EXPECT_EQ(r.probability[t], Rational(0));  // (c=0) & (c=1)
}

TEST(Activation, AveragesSumPerClass) {
  const Graph g = circuits::vender();
  PowerManagedDesign design = applyPowerManagement(g, 6);
  applySharedGating(design);
  const ActivationResult r = analyzeActivation(design);

  Rational mulSum;
  for (const NodeId n : g.nodesOfKind(OpKind::Mul)) mulSum += r.probability[n];
  EXPECT_EQ(r.averageOf(ResourceClass::Multiplier), mulSum);
  EXPECT_EQ(r.totalOps[unitIndex(ResourceClass::Multiplier)], 2);
}

TEST(Activation, PowerNumbersAreConsistent) {
  const OpPowerModel model = OpPowerModel::paperWeights();
  const Graph g = circuits::dealer();
  PowerManagedDesign design = applyPowerManagement(g, 6);
  applySharedGating(design);
  const ActivationResult r = analyzeActivation(design);

  EXPECT_DOUBLE_EQ(r.fullPower(model), 24.0);  // 3*1 + 3*4 + 2*3 + 1*3
  EXPECT_DOUBLE_EQ(r.expectedPower(model), 16.0);
  EXPECT_NEAR(r.reductionPercent(model), 100.0 * 8 / 24, 1e-9);
}

TEST(Activation, WidthScaledModelKeepsRatiosAtWidth8) {
  const OpPowerModel base = OpPowerModel::paperWeights();
  const OpPowerModel scaled = OpPowerModel::scaledToWidth(8);
  for (const ResourceClass rc : kUnitClasses)
    EXPECT_DOUBLE_EQ(base.weightOf(rc), scaled.weightOf(rc));

  const OpPowerModel wide = OpPowerModel::scaledToWidth(16);
  EXPECT_DOUBLE_EQ(wide.weightOf(ResourceClass::Adder), 6.0);        // linear
  EXPECT_DOUBLE_EQ(wide.weightOf(ResourceClass::Multiplier), 80.0);  // quadratic
}

TEST(Activation, ProbabilitiesAreProbabilities) {
  for (const auto& circuit : circuits::paperCircuits()) {
    const Graph g = circuit.build();
    for (const int steps : circuits::tableIISteps(circuit.name)) {
      PowerManagedDesign design = applyPowerManagement(g, steps);
      applySharedGating(design);
      const ActivationResult r = analyzeActivation(design);
      for (NodeId n = 0; n < g.size(); ++n) {
        EXPECT_GE(r.probability[n], Rational(0)) << circuit.name;
        EXPECT_LE(r.probability[n], Rational(1)) << circuit.name;
      }
    }
  }
}

}  // namespace
}  // namespace pmsched
