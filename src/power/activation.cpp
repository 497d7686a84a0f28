#include "power/activation.hpp"

#include <algorithm>
#include <cmath>
#include <map>
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
  result.condition = resolveActivationConditions(design);
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

  // Condition classes: nodes gated by the same cone carry *equal* DNFs, so
  // each distinct condition is analyzed once and the outcome fanned out to
  // every node in its class. Within one manager an equal DNF hash-conses to
  // the identical ref anyway, so the dedup changes no result — it removes
  // the redundant rebuild work.
  std::vector<const GateDnf*> classCond;            // first occurrence, class order
  std::vector<int> classOfNode(nontrivial.size());  // parallel to `nontrivial`
  {
    std::map<GateDnf, int> index;
    for (std::size_t i = 0; i < nontrivial.size(); ++i) {
      const GateDnf& cond = result.condition[nontrivial[i]];
      const auto [it, fresh] = index.emplace(cond, static_cast<int>(classCond.size()));
      if (fresh) classCond.push_back(&cond);
      classOfNode[i] = it->second;
    }
  }

  std::vector<NodeOutcome> outs(classCond.size());
  for (std::size_t c = 0; c < classCond.size(); ++c)
    outs[c] = budget != nullptr && budget->exhausted()
                  ? dnfIntervalEstimate(*classCond[c])
                  : buildCondition(*result.bdds, *classCond[c]);

  for (std::size_t i = 0; i < nontrivial.size(); ++i) {
    const NodeOutcome& out = outs[static_cast<std::size_t>(classOfNode[i])];
    const NodeId n = nontrivial[i];
    result.bdd[n] = out.ref;
    result.probability[n] = out.prob;
    result.errorBar[n] = out.error;
    result.degraded = result.degraded || out.degraded;
  }
  if (result.degraded && budget != nullptr)
    budget->noteDegraded("activation-analysis", BudgetKind::RationalWidth,
                         "some probabilities are bounded-error estimates (see errorBar)");

  for (NodeId n = 0; n < g.size(); ++n) {
    const ResourceClass rc = resourceClassOf(g.kind(n));
    if (rc == ResourceClass::None) continue;
    result.averageExecuted[unitIndex(rc)] += result.probability[n];
    ++result.totalOps[unitIndex(rc)];
  }
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
