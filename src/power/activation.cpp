#include "power/activation.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "support/run_budget.hpp"

namespace pmsched {

namespace {

/// Snap a double in [0, 1] onto the 52-fractional-bit dyadic grid — every
/// such grid point is an exact Rational, and the snap moves the value by at
/// most 2^-53.
Rational quantizeProbability(double v) {
  constexpr std::int64_t kDen = std::int64_t{1} << 52;
  const double clamped = std::min(std::max(v, 0.0), 1.0);
  return Rational{static_cast<std::int64_t>(std::llround(clamped * static_cast<double>(kDen))),
                  kDen};
}

/// What one condition's analysis produced, exactly or degraded.
struct NodeOutcome {
  BddRef ref = kBddInvalid;  // kBddInvalid when no canonical handle exists
  Rational prob = Rational::zero();
  double error = 0;  // 0 = exact
  bool degraded = false;
};

/// Probability sandwich straight from the DNF, no BDD required: each
/// normalized term holds with probability exactly 2^-|term|, so the union
/// is at least the largest single term and at most the (clamped) sum. The
/// midpoint with half-width error bar is the last-resort estimate when the
/// budget refuses even the BDD build.
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

/// Build one condition in `mgr`, degrading per the robustness contract:
/// a node-cap trip mid-build yields the DNF interval estimate (no handle);
/// an exact probability past Rational's width yields the bounded-error
/// BDD estimate (handle kept). Never throws BudgetExceededError.
NodeOutcome buildCondition(BddManager& mgr, const GateDnf& cond) {
  NodeOutcome out;
  try {
    out.ref = mgr.fromDnf(cond);
  } catch (const BudgetExceededError&) {
    return dnfIntervalEstimate(cond);  // manager stays valid; handle refused
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

}  // namespace

ActivationResult analyzeActivation(const PowerManagedDesign& design, const RunBudget* budget) {
  const Graph& g = design.graph;

  ActivationResult result;
  result.conditions = resolveActivationConditions(design);
  result.probability.assign(g.size(), Rational::one());
  result.bdds = std::make_shared<BddManager>();
  result.bdd.assign(g.size(), kBddTrue);
  result.errorBar.assign(g.size(), 0.0);
  result.averageExecuted.fill(Rational::zero());
  result.totalOps.fill(0);
  if (budget != nullptr && budget->bddNodeCap() != 0)
    result.bdds->setNodeLimit(budget->bddNodeCap());

  // Every condition BDD ends up in ONE manager, so the conditions of a
  // gated cone (which share muxes and therefore subformulas) share nodes,
  // and the per-node probability is a cache hit for every subgraph already
  // weighed for an earlier node.
  //
  // Condition classes: each table entry is one distinct condition, so it is
  // analyzed once — when an ascending node walk first meets it, which fixes
  // the order the BDDs are built in — and the outcome is fanned out to every
  // node of its class. Entry 0 is the only TRUE entry: an ungated node keeps
  // probability 1 and is counted into its unit class as an integer.
  const std::vector<GateDnf>& dnfs = result.conditions.dnfs;
  std::vector<NodeOutcome> outs(dnfs.size());
  std::vector<bool> analyzed(dnfs.size(), false);
  std::array<std::int64_t, kNumUnitClasses> ungated{};
  for (NodeId n = 0; n < g.size(); ++n) {
    const ResourceClass rc = resourceClassOf(g.kind(n));
    if (rc != ResourceClass::None) ++result.totalOps[unitIndex(rc)];
    const std::uint32_t e = result.conditions.index[n];
    if (e == 0) {
      if (rc != ResourceClass::None) ++ungated[unitIndex(rc)];
      continue;
    }
    NodeOutcome& out = outs[e];
    if (!analyzed[e]) {
      analyzed[e] = true;
      const GateDnf& cond = dnfs[e];
      if (cond.empty())
        out = NodeOutcome{kBddFalse, Rational::zero()};
      else
        out = budget != nullptr && budget->exhausted() ? dnfIntervalEstimate(cond)
                                                       : buildCondition(*result.bdds, cond);
    }
    result.bdd[n] = out.ref;
    result.probability[n] = out.prob;
    result.errorBar[n] = out.error;
    result.degraded = result.degraded || out.degraded;
    if (rc != ResourceClass::None) result.averageExecuted[unitIndex(rc)] += out.prob;
  }
  for (std::size_t i = 0; i < kNumUnitClasses; ++i) result.averageExecuted[i] += ungated[i];
  if (result.degraded && budget != nullptr)
    budget->noteDegraded("activation-analysis", BudgetKind::RationalWidth,
                         "some probabilities are bounded-error estimates (see errorBar)");
  return result;
}

double ActivationResult::expectedPower(const OpPowerModel& model) const {
  double p = 0;
  for (std::size_t i = 0; i < kNumUnitClasses; ++i)
    p += averageExecuted[i].toDouble() * model.weight[i];
  return p;
}

double ActivationResult::fullPower(const OpPowerModel& model) const {
  double p = 0;
  for (std::size_t i = 0; i < kNumUnitClasses; ++i)
    p += static_cast<double>(totalOps[i]) * model.weight[i];
  return p;
}

double ActivationResult::reductionPercent(const OpPowerModel& model) const {
  const double full = fullPower(model);
  if (full == 0) return 0;
  return (full - expectedPower(model)) / full * 100.0;
}

}  // namespace pmsched
