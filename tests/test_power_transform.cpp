// Tests for the paper's core transform: gated-set computation (including a
// differential check of GatedSetFinder against the mask-based definition,
// kept here as computeGatedSetsReference), the commit/revert loop, control
// edges, orderings, and the exact-subset extension.

#include <algorithm>

#include <gtest/gtest.h>

#include "circuits/circuits.hpp"
#include "power/activation.hpp"
#include "sched/power_transform.hpp"
#include "support/random_dfg.hpp"

namespace pmsched {
namespace {

bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

const MuxPmInfo& infoFor(const PowerManagedDesign& design, std::string_view name) {
  for (const MuxPmInfo& info : design.muxes)
    if (design.graph.node(info.mux).name == name) return info;
  throw std::runtime_error("mux not found: " + std::string(name));
}

TEST(GatedSets, AbsdiffGatesBothSubtractions) {
  const Graph g = circuits::absdiff();
  const GatedSets sets = computeGatedSets(g, *g.findByName("abs_mux"));
  EXPECT_EQ(sets.gatedTrue, (std::vector<NodeId>{*g.findByName("a_minus_b")}));
  EXPECT_EQ(sets.gatedFalse, (std::vector<NodeId>{*g.findByName("b_minus_a")}));
  EXPECT_EQ(sets.topTrue, sets.gatedTrue);
  EXPECT_EQ(sets.topFalse, sets.gatedFalse);
}

TEST(GatedSets, NodeInBothConesIsExcluded) {
  // out = mux(c, x+y, x-y): x and y feed both sides and are inputs anyway;
  // shared = x*y feeds both sides -> excluded.
  Graph g;
  const NodeId x = g.addInput("x");
  const NodeId y = g.addInput("y");
  const NodeId c = g.addOp(OpKind::CmpGt, {x, y}, "c");
  const NodeId shared = g.addOp(OpKind::Mul, {x, y}, "shared");
  const NodeId t = g.addOp(OpKind::Add, {shared, x}, "t");
  const NodeId f = g.addOp(OpKind::Sub, {shared, y}, "f");
  const NodeId m = g.addMux(c, t, f, "m");
  g.addOutput(m, "out");

  const GatedSets sets = computeGatedSets(g, m);
  EXPECT_FALSE(contains(sets.gatedTrue, shared));
  EXPECT_FALSE(contains(sets.gatedFalse, shared));
  EXPECT_TRUE(contains(sets.gatedTrue, t));
  EXPECT_TRUE(contains(sets.gatedFalse, f));
}

TEST(GatedSets, EscapingFanoutIsExcludedTransitively) {
  // d = a-b feeds the mux AND an external output: not gateable; its
  // upstream producer chain must be dropped with it.
  Graph g;
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId c = g.addOp(OpKind::CmpGt, {a, b}, "c");
  const NodeId inner = g.addOp(OpKind::Add, {a, b}, "inner");
  const NodeId d = g.addOp(OpKind::Sub, {inner, b}, "d");
  const NodeId m = g.addMux(c, d, a, "m");
  g.addOutput(m, "out");
  g.addOutput(d, "leak");  // the escape

  const GatedSets sets = computeGatedSets(g, m);
  EXPECT_TRUE(sets.gatedTrue.empty());
  EXPECT_TRUE(sets.gatedFalse.empty());
}

TEST(GatedSets, SelectConeIsNeverGated) {
  // The select computation itself is needed regardless of the outcome.
  Graph g;
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId pre = g.addOp(OpKind::Add, {a, b}, "pre");
  const NodeId c = g.addOp(OpKind::CmpGt, {pre, b}, "c");
  const NodeId t = g.addOp(OpKind::Sub, {pre, a}, "t");  // also in select cone
  const NodeId m = g.addMux(c, t, a, "m");
  g.addOutput(m, "out");

  const GatedSets sets = computeGatedSets(g, m);
  // pre is in the select cone: it computes the condition, so it always
  // executes. t reads pre but is not itself needed by the select — it stays
  // gateable.
  EXPECT_FALSE(contains(sets.gatedTrue, pre));
  EXPECT_TRUE(contains(sets.gatedTrue, t));
}

TEST(GatedSets, NestedMuxesGateTheInnerMux) {
  const Graph g = circuits::dealer();
  const GatedSets sets = computeGatedSets(g, *g.findByName("M3"));
  EXPECT_TRUE(contains(sets.gatedTrue, *g.findByName("mA")));
  EXPECT_TRUE(contains(sets.gatedTrue, *g.findByName("c2")));
  EXPECT_TRUE(contains(sets.gatedFalse, *g.findByName("mB")));
  EXPECT_TRUE(contains(sets.gatedFalse, *g.findByName("c3")));
  EXPECT_TRUE(contains(sets.gatedFalse, *g.findByName("d")));
  // Tops: only c2 has no in-set ancestor on the true side (mA reads c2).
  EXPECT_EQ(sets.topTrue, (std::vector<NodeId>{*g.findByName("c2")}));
}

// ---------------------------------------------------------------------------
// Plain reference: the paper's definition read literally. Per side, the
// exclusive cone (side cone minus the other side's and the select's cones,
// minus inputs, constants and outputs), shrunk to the greatest fixed point
// in which every data fanout stays inside the set or is the mux.
// ---------------------------------------------------------------------------

/// Membership flags of everything reachable backwards over data edges from
/// operand `opIndex` of `mux`, that operand included.
std::vector<char> operandConeReference(const Graph& g, NodeId mux, std::size_t opIndex) {
  std::vector<char> cone(g.size(), 0);
  std::vector<NodeId> stack{g.fanins(mux)[opIndex]};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (cone[n]) continue;
    cone[n] = 1;
    for (const NodeId p : g.fanins(n))
      if (!cone[p]) stack.push_back(p);
  }
  return cone;
}

std::vector<NodeId> gatedSideReference(const Graph& g, NodeId mux,
                                       const std::vector<char>& coneSide,
                                       const std::vector<char>& coneOther,
                                       const std::vector<char>& coneSel) {
  std::vector<char> in(g.size(), 0);
  std::vector<NodeId> work;
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!coneSide[n] || coneOther[n] || coneSel[n]) continue;
    const OpKind k = g.kind(n);
    if (k == OpKind::Input || k == OpKind::Const || k == OpKind::Output) continue;
    in[n] = 1;
    work.push_back(n);
  }
  while (!work.empty()) {
    const NodeId n = work.back();
    work.pop_back();
    if (!in[n]) continue;
    for (const NodeId f : g.fanouts(n)) {
      if (f == mux || in[f]) continue;
      in[n] = 0;
      for (const NodeId p : g.fanins(n))
        if (in[p]) work.push_back(p);
      break;
    }
  }
  std::vector<NodeId> members;
  for (NodeId n = 0; n < g.size(); ++n)
    if (in[n]) members.push_back(n);
  return members;
}

/// Scheduled members with no scheduled in-set ancestor (through in-set
/// wires), by ascending-id reachability flags.
std::vector<NodeId> topNodesReference(const Graph& g, const std::vector<NodeId>& set) {
  std::vector<char> in(g.size(), 0);
  for (const NodeId n : set) in[n] = 1;
  std::vector<char> reach(g.size(), 0);
  for (const NodeId n : set) {
    if (isScheduled(g.kind(n))) {
      reach[n] = 1;
      continue;
    }
    for (const NodeId p : g.fanins(n))
      if (in[p] && reach[p]) {
        reach[n] = 1;
        break;
      }
  }
  std::vector<NodeId> tops;
  for (const NodeId n : set) {
    if (!isScheduled(g.kind(n))) continue;
    const std::span<const NodeId> ops = g.fanins(n);
    if (std::none_of(ops.begin(), ops.end(), [&](NodeId p) { return in[p] && reach[p]; }))
      tops.push_back(n);
  }
  return tops;
}

GatedSets computeGatedSetsReference(const Graph& g, NodeId mux) {
  const std::vector<char> coneSel = operandConeReference(g, mux, 0);
  const std::vector<char> coneT = operandConeReference(g, mux, 1);
  const std::vector<char> coneF = operandConeReference(g, mux, 2);
  GatedSets sets;
  sets.gatedTrue = gatedSideReference(g, mux, coneT, coneF, coneSel);
  sets.gatedFalse = gatedSideReference(g, mux, coneF, coneT, coneSel);
  sets.topTrue = topNodesReference(g, sets.gatedTrue);
  sets.topFalse = topNodesReference(g, sets.gatedFalse);
  return sets;
}

/// Checks every mux of `g` against the reference with one finder (so stale
/// scratch from earlier muxes would show). Returns the muxes that gate
/// something.
int expectFinderMatchesReference(const Graph& g, const std::string& what) {
  GatedSetFinder finder(g);
  int gating = 0;
  for (const NodeId m : g.nodesOfKind(OpKind::Mux)) {
    const GatedSets fast = finder.find(m);
    const GatedSets ref = computeGatedSetsReference(g, m);
    const std::string at = what + " mux '" + g.node(m).name + "'";
    EXPECT_EQ(fast.gatedTrue, ref.gatedTrue) << at;
    EXPECT_EQ(fast.gatedFalse, ref.gatedFalse) << at;
    EXPECT_EQ(fast.topTrue, ref.topTrue) << at;
    EXPECT_EQ(fast.topFalse, ref.topFalse) << at;
    if (::testing::Test::HasFailure()) return gating;
    if (!ref.gatedTrue.empty() || !ref.gatedFalse.empty()) ++gating;
  }
  return gating;
}

TEST(GatedSetFinder, MatchesReferenceOnPaperAndHlsCircuits) {
  std::vector<Graph> graphs;
  for (const auto& entry : circuits::paperCircuits()) graphs.push_back(entry.build());
  graphs.push_back(circuits::absdiff());
  graphs.push_back(circuits::cordic());
  graphs.push_back(circuits::diffeq());
  graphs.push_back(circuits::fir8());
  graphs.push_back(circuits::arf());
  graphs.push_back(circuits::ewf());
  int gating = 0;
  for (const Graph& g : graphs) gating += expectFinderMatchesReference(g, g.name());
  EXPECT_GT(gating, 5);
}

TEST(GatedSetFinder, MatchesReferenceOnRandomLadder) {
  struct Shape {
    int layers, perLayer;
  };
  int gating = 0;
  for (const Shape s : {Shape{2, 2}, Shape{4, 4}, Shape{8, 4}, Shape{16, 8}, Shape{32, 6},
                        Shape{64, 8}, Shape{128, 8}, Shape{256, 16}, Shape{512, 16},
                        Shape{1024, 16}}) {
    const std::uint64_t seeds = s.layers >= 256 ? 1 : 4;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const Graph g = randomLayeredDfg(s.layers, s.perLayer, seed);
      gating += expectFinderMatchesReference(g, g.name() + " seed " + std::to_string(seed));
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(gating, 100);
}

TEST(GatedSetFinder, MatchesReferenceOnHandBuiltCases) {
  // Each case isolates one rule of the definition; the mux is always `m`.
  std::vector<Graph> cases;
  {  // One operand feeds both data sides: it is in neither gated set.
    Graph g("shared_operand");
    const NodeId a = g.addInput("a");
    const NodeId b = g.addInput("b");
    const NodeId c = g.addOp(OpKind::CmpGt, {a, b}, "c");
    const NodeId t = g.addOp(OpKind::Add, {a, b}, "t");
    const NodeId pre = g.addOp(OpKind::Mul, {a, b}, "pre");
    const NodeId both = g.addOp(OpKind::Sub, {pre, a}, "both");
    const NodeId m = g.addMux(c, both, both, "m");
    g.addOutput(m, "out");
    g.addOutput(t, "t_out");
    cases.push_back(std::move(g));
  }
  {  // The select also feeds the true side, directly and through an adder.
    Graph g("select_feeds_side");
    const NodeId a = g.addInput("a");
    const NodeId b = g.addInput("b");
    const NodeId c = g.addOp(OpKind::CmpGt, {a, b}, "c");
    const NodeId f = g.addOp(OpKind::Sub, {a, b}, "f");
    const NodeId m = g.addMux(c, c, f, "m");
    const NodeId d = g.addOp(OpKind::CmpLt, {a, b}, "d");
    const NodeId u = g.addOp(OpKind::Add, {d, a}, "u");
    const NodeId m2 = g.addMux(d, u, m, "m2");
    g.addOutput(m2, "out");
    cases.push_back(std::move(g));
  }
  {  // Wire chains inside a gated set: tops look through them.
    Graph g("wire_chain");
    const NodeId a = g.addInput("a");
    const NodeId b = g.addInput("b");
    const NodeId c = g.addOp(OpKind::CmpGt, {a, b}, "c");
    const NodeId x = g.addOp(OpKind::Mul, {a, b}, "x");
    const NodeId w1 = g.addWire(x, 1, "w1");
    const NodeId w2 = g.addWire(w1, 0, "w2");
    const NodeId y = g.addOp(OpKind::Add, {w2, w1}, "y");
    const NodeId wa = g.addWire(a, 2, "wa");
    const NodeId z = g.addOp(OpKind::Sub, {wa, b}, "z");
    const NodeId m = g.addMux(c, y, z, "m");
    g.addOutput(m, "out");
    cases.push_back(std::move(g));
  }
  {  // A would-be gated node also feeds an Output: it and its producers leak.
    Graph g("gated_feeds_output");
    const NodeId a = g.addInput("a");
    const NodeId b = g.addInput("b");
    const NodeId c = g.addOp(OpKind::CmpGt, {a, b}, "c");
    const NodeId p = g.addOp(OpKind::Mul, {a, b}, "p");
    const NodeId q = g.addOp(OpKind::Add, {p, a}, "q");
    const NodeId r = g.addOp(OpKind::Sub, {q, b}, "r");
    const NodeId k = g.addConst(3, 8, "k");
    const NodeId s = g.addOp(OpKind::Add, {k, b}, "s");
    const NodeId m = g.addMux(c, r, s, "m");
    g.addOutput(m, "out");
    g.addOutput(q, "leak");
    cases.push_back(std::move(g));
  }
  {  // A mux feeding a mux: the inner mux and its exclusive cones are gated
     // by the outer one.
    Graph g("mux_into_mux");
    const NodeId a = g.addInput("a");
    const NodeId b = g.addInput("b");
    const NodeId c1 = g.addOp(OpKind::CmpGt, {a, b}, "c1");
    const NodeId c2 = g.addOp(OpKind::CmpLt, {a, b}, "c2");
    const NodeId x = g.addOp(OpKind::Add, {a, b}, "x");
    const NodeId y = g.addOp(OpKind::Sub, {a, b}, "y");
    const NodeId inner = g.addMux(c2, x, y, "inner");
    const NodeId z = g.addOp(OpKind::Mul, {a, b}, "z");
    const NodeId outer = g.addMux(c1, inner, z, "outer");
    g.addOutput(outer, "out");
    cases.push_back(std::move(g));
  }
  for (const Graph& g : cases) {
    g.validate();
    expectFinderMatchesReference(g, g.name());
  }

  // The cases pin the rules, not just agreement: a shared operand, a
  // select on a data side and a leaking producer are never gated.
  const auto gatedIn = [](const Graph& g, std::string_view mux) {
    return computeGatedSets(g, *g.findByName(mux));
  };
  const GatedSets shared = gatedIn(cases[0], "m");
  EXPECT_TRUE(shared.gatedTrue.empty());
  EXPECT_TRUE(shared.gatedFalse.empty());
  const GatedSets sel = gatedIn(cases[1], "m");
  EXPECT_TRUE(sel.gatedTrue.empty());
  EXPECT_EQ(sel.gatedFalse, (std::vector<NodeId>{*cases[1].findByName("f")}));
  const GatedSets wires = gatedIn(cases[2], "m");
  EXPECT_EQ(wires.topTrue, (std::vector<NodeId>{*cases[2].findByName("x")}));
  EXPECT_TRUE(contains(wires.gatedTrue, *cases[2].findByName("w2")));
  EXPECT_TRUE(contains(wires.gatedFalse, *cases[2].findByName("wa")));
  const GatedSets leak = gatedIn(cases[3], "m");
  EXPECT_EQ(leak.gatedTrue, (std::vector<NodeId>{*cases[3].findByName("r")}));
  EXPECT_EQ(leak.gatedFalse, (std::vector<NodeId>{*cases[3].findByName("s")}));
  const GatedSets nested = gatedIn(cases[4], "outer");
  EXPECT_EQ(nested.gatedTrue.size(), 4u);  // c2, x, y, inner
  EXPECT_EQ(nested.topTrue.size(), 3u);    // c2, x, y
}

TEST(GatedSetFinder, RejectsANonMux) {
  const Graph g = circuits::absdiff();
  EXPECT_THROW((void)computeGatedSets(g, *g.findByName("a_minus_b")), SynthesisError);
}

TEST(Transform, AbsdiffInfeasibleAtTwoSteps) {
  const Graph g = circuits::absdiff();
  const PowerManagedDesign design = applyPowerManagement(g, 2);
  EXPECT_EQ(design.managedCount(), 0);
  EXPECT_EQ(design.graph.controlEdgeCount(), 0u);
  const MuxPmInfo& info = infoFor(design, "abs_mux");
  EXPECT_FALSE(info.managed);
  EXPECT_NE(info.reason.find("insufficient slack"), std::string::npos);
}

TEST(Transform, AbsdiffManagedAtThreeSteps) {
  const Graph g = circuits::absdiff();
  const PowerManagedDesign design = applyPowerManagement(g, 3);
  EXPECT_EQ(design.managedCount(), 1);
  EXPECT_EQ(design.graph.controlEdgeCount(), 2u);  // cmp -> each subtraction
  const MuxPmInfo& info = infoFor(design, "abs_mux");
  EXPECT_TRUE(info.managed);
  EXPECT_EQ(info.lastControl, *g.findByName("a_gt_b"));
}

TEST(Transform, GatesRecordedPerNode) {
  const Graph g = circuits::absdiff();
  const PowerManagedDesign design = applyPowerManagement(g, 3);
  const NodeId sub1 = *g.findByName("a_minus_b");
  ASSERT_EQ(design.gates[sub1].size(), 1u);
  EXPECT_EQ(design.gates[sub1][0].mux, *g.findByName("abs_mux"));
  EXPECT_EQ(design.gates[sub1][0].side, MuxSide::True);
}

TEST(Transform, CommitTightensLaterMuxes) {
  // In the dealer at 4 steps, committing M3 consumes all slack: mB's
  // gating must then be rejected (its reason mentions the squeeze).
  const Graph g = circuits::dealer();
  const PowerManagedDesign design = applyPowerManagement(g, 4);
  EXPECT_TRUE(infoFor(design, "M3").managed);
  EXPECT_FALSE(infoFor(design, "mB").managed);
  EXPECT_TRUE(infoFor(design, "mA").reason.find("exclusive") != std::string::npos);
}

TEST(Transform, PiControlledMuxNeedsNoControlStep) {
  // gcd's writeback muxes select on the 'start' input: always manageable.
  const Graph g = circuits::gcd();
  const PowerManagedDesign design = applyPowerManagement(g, 5);
  const MuxPmInfo& info = infoFor(design, "b_wb");
  EXPECT_TRUE(info.managed);
  EXPECT_EQ(info.lastControl, kInvalidNode);
}

TEST(Transform, FramesStayFeasibleAfterCommit) {
  for (const auto& circuit : circuits::paperCircuits()) {
    const Graph g = circuit.build();
    for (const int steps : circuits::tableIISteps(circuit.name)) {
      const PowerManagedDesign design = applyPowerManagement(g, steps);
      EXPECT_TRUE(design.frames.feasible(design.graph)) << circuit.name << "@" << steps;
    }
  }
}

TEST(Transform, NegativeControlCircuitsAreUntouched) {
  for (const Graph& g : {circuits::diffeq(), circuits::ewf()}) {
    const PowerManagedDesign design = applyPowerManagement(g, criticalPathLength(g) + 4);
    EXPECT_EQ(design.managedCount(), 0) << g.name();
    EXPECT_EQ(design.graph.controlEdgeCount(), 0u) << g.name();
  }
}

TEST(Transform, OrderingChangesOutcomeUnderTightSlack) {
  // With contended slack the greedy order matters; sanity-check that all
  // orderings still produce feasible designs and the savings ordering never
  // yields a *worse* total than InputFirst on the paper set.
  const OpPowerModel model = OpPowerModel::paperWeights();
  for (const auto& circuit : circuits::paperCircuits()) {
    const Graph g = circuit.build();
    const int steps = circuits::tableIISteps(circuit.name).front();
    const double bySavings =
        analyzeActivation(applyPowerManagement(g, steps, MuxOrdering::BySavings))
            .reductionPercent(model);
    const double inputFirst =
        analyzeActivation(applyPowerManagement(g, steps, MuxOrdering::InputFirst))
            .reductionPercent(model);
    EXPECT_GE(bySavings + 1e-9, inputFirst) << circuit.name;
  }
}

TEST(Transform, OptimalAtLeastAsGoodAsGreedy) {
  const OpPowerModel model = OpPowerModel::paperWeights();
  for (const auto& circuit : circuits::paperCircuits()) {
    if (std::string_view(circuit.name) == "cordic") continue;  // large: skip exact search
    const Graph g = circuit.build();
    for (const int steps : circuits::tableIISteps(circuit.name)) {
      const double greedy =
          analyzeActivation(applyPowerManagement(g, steps)).reductionPercent(model);
      const double optimal =
          analyzeActivation(applyPowerManagementOptimal(g, steps)).reductionPercent(model);
      EXPECT_GE(optimal + 1e-9, greedy) << circuit.name << "@" << steps;
    }
  }
}

TEST(Transform, TraceSelectThroughWires) {
  Graph g;
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId c = g.addOp(OpKind::CmpGt, {a, b}, "c");
  const NodeId w = g.addWire(c, 0, "w");
  const NodeId m = g.addOp(OpKind::Mux, {w, a, b}, "m");
  g.addOutput(m, "out");
  EXPECT_EQ(traceSelectProducer(g, m), c);
  EXPECT_THROW((void)traceSelectProducer(g, c), SynthesisError);
}

TEST(Transform, UnmanagedDesignIsInert) {
  const Graph g = circuits::dealer();
  const PowerManagedDesign design = unmanagedDesign(g, 6);
  EXPECT_EQ(design.managedCount(), 0);
  EXPECT_EQ(design.sharedGatedCount(), 0);
  const ActivationResult activation = analyzeActivation(design);
  for (const NodeId n : g.scheduledNodes())
    EXPECT_EQ(activation.probability[n], Rational(1));
}

}  // namespace
}  // namespace pmsched
