// Differential tests for the activation condition table.
//
// resolveActivationConditions() stores each distinct resolved DNF once,
// with entry 0 TRUE, plus one index per node; analyzeActivation() analyzes
// each table entry once and counts ungated operations as integers. Both are
// compared with the per-node algorithms they replaced, kept here as
// references: every node's condition term for term, and the probability,
// error bar, BDD ref, per-class averages, op counts and degraded flag. The
// controller's loads must read the activation condition of their value
// through the spec's own table of distinct conditions.
//
// Cases: 512x16 strict at cp+2 through the controller; 128x8 and 256x16
// shared through shared gating and activation only (the controller does
// not yet accept every shared design there); every paper circuit at its
// Table II budgets under every ordering and the exact search, strict and
// shared; and one design whose BDD node cap degrades the analysis.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "alloc/binding.hpp"
#include "cdfg/analysis.hpp"
#include "circuits/circuits.hpp"
#include "ctrl/controller.hpp"
#include "power/activation.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_transform.hpp"
#include "sched/shared_gating.hpp"
#include "support/random_dfg.hpp"
#include "support/run_budget.hpp"

namespace pmsched {
namespace {

/// The per-node resolution: one DNF per node, TRUE built for every ungated
/// one.
std::vector<GateDnf> resolveActivationConditionsReference(const PowerManagedDesign& design) {
  const Graph& g = design.graph;
  std::vector<GateDnf> cond(g.size());
  const std::span<const NodeId> order = g.topoOrderView();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId n = *it;
    if (!design.sharedGating[n].empty()) {
      cond[n] = simplifyDnf(design.sharedGating[n]);
      continue;
    }
    GateDnf c = dnfTrue();
    for (const NodeGate& gate : design.gates[n]) {
      const GateDnf lit{
          GateTerm{GateLiteral{traceSelectProducer(g, gate.mux), gate.side == MuxSide::True}}};
      c = andDnf(c, lit);
      c = andDnf(c, cond[gate.mux]);
    }
    cond[n] = std::move(c);
  }
  return cond;
}

/// What the per-node analysis produced.
struct ActivationReference {
  std::vector<GateDnf> condition;
  std::vector<Rational> probability;
  std::vector<BddRef> bdd;
  std::vector<double> errorBar;
  bool degraded = false;
  std::array<Rational, kNumUnitClasses> averageExecuted{};
  std::array<int, kNumUnitClasses> totalOps{};
};

Rational quantizeProbability(double v) {
  constexpr std::int64_t kDen = std::int64_t{1} << 52;
  const double clamped = std::min(std::max(v, 0.0), 1.0);
  return Rational{static_cast<std::int64_t>(std::llround(clamped * static_cast<double>(kDen))),
                  kDen};
}

struct NodeOutcome {
  BddRef ref = kBddInvalid;
  Rational prob = Rational::zero();
  double error = 0;
  bool degraded = false;
};

NodeOutcome dnfIntervalEstimate(const GateDnf& cond) {
  double lb = 0, ub = 0;
  for (const GateTerm& term : cond) {
    const double p = std::ldexp(1.0, -static_cast<int>(term.size()));
    lb = std::max(lb, p);
    ub += p;
  }
  ub = std::min(ub, 1.0);
  NodeOutcome out;
  out.prob = quantizeProbability((lb + ub) / 2.0);
  out.error = (ub - lb) / 2.0 + 0x1p-53;
  out.degraded = true;
  return out;
}

NodeOutcome buildCondition(BddManager& mgr, const GateDnf& cond) {
  NodeOutcome out;
  try {
    out.ref = mgr.fromDnf(cond);
  } catch (const BudgetExceededError&) {
    return dnfIntervalEstimate(cond);
  }
  try {
    out.prob = mgr.probability(out.ref);
  } catch (const BudgetExceededError&) {
    const BddManager::ApproxProbability approx = mgr.probabilityApprox(out.ref);
    out.prob = quantizeProbability(approx.value);
    out.error = approx.error + 0x1p-53;
    out.degraded = true;
  }
  return out;
}

/// The per-node analysis: a std::map dedup of the nontrivial conditions
/// into classes built in first-node order, and a Rational sum over every
/// operation.
ActivationReference analyzeActivationReference(const PowerManagedDesign& design,
                                               const RunBudget* budget) {
  const Graph& g = design.graph;
  ActivationReference result;
  result.condition = resolveActivationConditionsReference(design);
  result.probability.assign(g.size(), Rational::one());
  BddManager mgr;
  result.bdd.assign(g.size(), kBddTrue);
  result.errorBar.assign(g.size(), 0.0);
  result.averageExecuted.fill(Rational::zero());
  if (budget != nullptr && budget->bddNodeCap() != 0) mgr.setNodeLimit(budget->bddNodeCap());

  std::vector<NodeId> nontrivial;
  for (NodeId n = 0; n < g.size(); ++n) {
    const GateDnf& cond = result.condition[n];
    if (dnfIsTrue(cond)) {
      result.bdd[n] = kBddTrue;
    } else if (cond.empty()) {
      result.bdd[n] = kBddFalse;
      result.probability[n] = Rational::zero();
    } else {
      nontrivial.push_back(n);
    }
  }
  std::vector<const GateDnf*> classCond;
  std::vector<int> classOfNode(nontrivial.size());
  std::map<GateDnf, int> index;
  for (std::size_t i = 0; i < nontrivial.size(); ++i) {
    const GateDnf& cond = result.condition[nontrivial[i]];
    const auto [it, fresh] = index.emplace(cond, static_cast<int>(classCond.size()));
    if (fresh) classCond.push_back(&cond);
    classOfNode[i] = it->second;
  }
  std::vector<NodeOutcome> outs(classCond.size());
  for (std::size_t c = 0; c < classCond.size(); ++c)
    outs[c] = budget != nullptr && budget->exhausted() ? dnfIntervalEstimate(*classCond[c])
                                                       : buildCondition(mgr, *classCond[c]);
  for (std::size_t i = 0; i < nontrivial.size(); ++i) {
    const NodeOutcome& out = outs[static_cast<std::size_t>(classOfNode[i])];
    const NodeId n = nontrivial[i];
    result.bdd[n] = out.ref;
    result.probability[n] = out.prob;
    result.errorBar[n] = out.error;
    result.degraded = result.degraded || out.degraded;
  }
  for (NodeId n = 0; n < g.size(); ++n) {
    const ResourceClass rc = resourceClassOf(g.kind(n));
    if (rc == ResourceClass::None) continue;
    result.averageExecuted[unitIndex(rc)] += result.probability[n];
    ++result.totalOps[unitIndex(rc)];
  }
  return result;
}

/// The table expands to the reference conditions term for term, holds each
/// distinct DNF once with TRUE at entry 0, gives every node without gates
/// or shared gating entry 0, and every analysis output matches.
void expectSameActivation(const PowerManagedDesign& design, const ActivationResult& got,
                          const ActivationReference& ref, const std::string& what) {
  const Graph& g = design.graph;
  const std::vector<GateDnf>& dnfs = got.conditions.dnfs;
  ASSERT_EQ(got.conditions.index.size(), g.size()) << what;
  ASSERT_FALSE(dnfs.empty()) << what;
  ASSERT_EQ(dnfs[0], dnfTrue()) << what;
  std::vector<bool> used(dnfs.size(), false);
  for (NodeId n = 0; n < g.size(); ++n) {
    ASSERT_LT(got.conditions.index[n], dnfs.size()) << what << ": node " << n;
    used[got.conditions.index[n]] = true;
    ASSERT_EQ(got.condition(n), ref.condition[n]) << what << ": condition of node " << n;
    if (design.gates[n].empty() && design.sharedGating[n].empty()) {
      ASSERT_EQ(got.conditions.index[n], 0u) << what << ": ungated node " << n;
    }
  }
  for (std::size_t e = 1; e < dnfs.size(); ++e)
    EXPECT_TRUE(used[e]) << what << ": table entry " << e << " serves no node";
  std::vector<GateDnf> sorted = dnfs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << what << ": a DNF is stored twice";

  EXPECT_EQ(got.probability, ref.probability) << what;
  EXPECT_EQ(got.bdd, ref.bdd) << what;
  EXPECT_EQ(got.errorBar, ref.errorBar) << what;
  EXPECT_EQ(got.degraded, ref.degraded) << what;
  EXPECT_EQ(got.averageExecuted, ref.averageExecuted) << what;
  EXPECT_EQ(got.totalOps, ref.totalOps) << what;
}

/// Every load reads its value's activation condition through the spec's
/// table, which holds TRUE at entry 0 and each gated condition once.
void expectLoadsReadActivation(const ControllerSpec& spec, const ActivationResult& activation,
                               const std::string& what) {
  ASSERT_FALSE(spec.conditions.empty()) << what;
  ASSERT_EQ(spec.conditions[0], dnfTrue()) << what;
  for (const LoadAction& load : spec.loads) {
    ASSERT_LT(load.conditionIndex, spec.conditions.size()) << what;
    ASSERT_EQ(spec.condition(load), activation.condition(load.value))
        << what << ": load of node " << load.value;
    EXPECT_EQ(load.isGated(), spec.condition(load) != dnfTrue()) << what;
    EXPECT_EQ(load.conditionClass >= 0, load.isGated()) << what;
  }
  std::vector<GateDnf> sorted = spec.conditions;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << what << ": a load condition is stored twice";
}

/// Compare the analysis of `design` with the reference and, when
/// `controller` is set, schedule, bind and check the controller's loads.
/// Returns the number of gated nodes, so callers can check gating happened.
/// A shared design the controller refuses is skipped, not failed.
int checkDesign(const PowerManagedDesign& design, bool controller, const std::string& what) {
  const ActivationResult got = analyzeActivation(design);
  expectSameActivation(design, got, analyzeActivationReference(design, nullptr), what);
  if (controller) {
    const Schedule sched = minimizeSchedule(design.graph, design.steps, design.frames).schedule;
    const Binding binding = bindDesign(design.graph, sched);
    try {
      expectLoadsReadActivation(synthesizeController(design, sched, binding, got), got, what);
    } catch (const SynthesisError&) {
      EXPECT_GT(design.sharedGatedCount(), 0) << what << ": a strict design's controller failed";
    }
  }
  int gated = 0;
  for (NodeId n = 0; n < design.graph.size(); ++n)
    if (got.conditions.index[n] != 0) ++gated;
  return gated;
}

TEST(ConditionTableDifferential, Strict512x16AtCpPlus2) {
  for (const std::uint64_t seed : {1u, 2u}) {
    const Graph g = randomLayeredDfg(512, 16, seed);
    const int steps = criticalPathLength(g) + 2;
    const PowerManagedDesign design = applyPowerManagement(g, steps);
    const int gated = checkDesign(design, true, "512x16:" + std::to_string(seed) + " strict");
    if (HasFatalFailure()) return;
    EXPECT_GT(gated, 100);
  }
}

TEST(ConditionTableDifferential, SharedGatingAtRealisticSizes) {
  struct Size {
    int layers;
    int perLayer;
  };
  int shared = 0;
  for (const Size size : {Size{128, 8}, Size{256, 16}}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const Graph g = randomLayeredDfg(size.layers, size.perLayer, seed);
      const int cp = criticalPathLength(g);
      for (const int extra : {2, 8}) {
        PowerManagedDesign design = applyPowerManagement(g, cp + extra);
        applySharedGating(design);
        shared += design.sharedGatedCount();
        checkDesign(design, false,
                    std::to_string(size.layers) + "x" + std::to_string(size.perLayer) + ":" +
                        std::to_string(seed) + " shared @cp+" + std::to_string(extra));
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(shared, 0);
}

TEST(ConditionTableDifferential, PaperCircuitsAtTableIIBudgets) {
  int gated = 0;
  for (const auto& entry : circuits::paperCircuits()) {
    const Graph g = entry.build();
    for (const int steps : circuits::tableIISteps(entry.name)) {
      for (const bool shared : {false, true}) {
        const std::string mode = shared ? " shared" : " strict";
        auto check = [&](PowerManagedDesign design, const std::string& how) {
          if (shared) applySharedGating(design);
          gated += checkDesign(design, true,
                               std::string(entry.name) + " @" + std::to_string(steps) + " " +
                                   how + mode);
        };
        check(applyPowerManagement(g, steps, MuxOrdering::OutputFirst), "output");
        check(applyPowerManagement(g, steps, MuxOrdering::InputFirst), "input");
        check(applyPowerManagement(g, steps, MuxOrdering::BySavings), "savings");
        check(applyPowerManagementOptimal(g, steps), "optimal");
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(gated, 0);
}

TEST(ConditionTableDifferential, DegradedAnalysisMatchesUnderANodeCap) {
  // A node cap far below what the conditions need: classes past it fall
  // back to estimates, in the same class order, with the same error bars.
  const Graph g = randomLayeredDfg(128, 8, 1);
  PowerManagedDesign design = applyPowerManagement(g, criticalPathLength(g) + 8);
  applySharedGating(design);
  RunBudget budget;
  budget.setBddNodeCap(24);
  RunBudget referenceBudget;
  referenceBudget.setBddNodeCap(24);
  const ActivationResult got = analyzeActivation(design, &budget);
  EXPECT_TRUE(got.degraded);
  expectSameActivation(design, got, analyzeActivationReference(design, &referenceBudget),
                       "128x8 shared, node cap 24");
}

}  // namespace
}  // namespace pmsched
