#pragma once
// Activation analysis: the exact probability that each operation executes
// in a power-managed design, under the paper's model that every mux selects
// each input with probability 1/2, independently.
//
// A gated node's activation condition is a DNF over "select signal s has
// value v" literals: a single conjunction for the paper's per-mux gating
// (nested gating composes by AND), and a genuine disjunction for nodes
// gated by the Shared extension. Probabilities are dyadic rationals and are
// computed exactly — Table II's "average number of operations executed"
// columns fall out of summing them per unit class.
//
// Only the few gated operations carry a condition worth storing, so the
// result keeps a table of the distinct resolved DNFs (entry 0 is TRUE) and
// one index per node: an ungated node costs an index, not a DNF, and each
// distinct condition is analyzed once however many nodes share it.

#include <array>
#include <memory>
#include <vector>

#include "power/power_model.hpp"
#include "sched/bdd.hpp"
#include "sched/power_transform.hpp"
#include "support/rational.hpp"

namespace pmsched {

class RunBudget;

struct ActivationResult {
  /// Execution probability per node (1 for ungated operations). Exact
  /// unless the matching errorBar entry is nonzero (see below).
  std::vector<Rational> probability;
  /// Resolved activation conditions: each distinct DNF once, entry 0 TRUE
  /// (every ungated node), plus one entry index per node. Read a node's
  /// condition through condition(n).
  ConditionTable conditions;

  /// One BDD manager shared by every condition in the design: nested and
  /// shared gating produce heavily overlapping conditions, so hash-consing
  /// makes `bdd[n]` a canonical handle (equal function <=> equal ref) and
  /// later queries (probability, support, equivalence) reuse the built
  /// structure instead of re-enumerating. Shared so copies of the result
  /// keep the handles valid.
  std::shared_ptr<BddManager> bdds;
  /// Canonical condition BDD per node (kBddTrue for ungated operations,
  /// kBddInvalid when the build degraded for that node — consumers that
  /// need the BDD must check; the controller path only reads condition()).
  std::vector<BddRef> bdd;

  /// Per-node bound on |probability[n] - exact P(n)|. Zero for every node
  /// computed exactly; nonzero entries mark nodes that fell back to the
  /// bounded-error estimate (support past Rational's width, BDD arena at
  /// its cap, or run budget exhausted mid-analysis).
  std::vector<double> errorBar;
  /// True when at least one node's probability is an estimate.
  bool degraded = false;

  /// Sum of probabilities per unit class — the paper's Table II
  /// "Average Number of Operations Executed" columns.
  std::array<Rational, kNumUnitClasses> averageExecuted{};
  /// Static op counts per class (every op executes without PM).
  std::array<int, kNumUnitClasses> totalOps{};

  /// Expected datapath power with PM, in the model's relative units.
  [[nodiscard]] double expectedPower(const OpPowerModel& model) const;
  /// Datapath power without PM (all ops execute).
  [[nodiscard]] double fullPower(const OpPowerModel& model) const;
  /// The paper's "Power Red.(%)" column.
  [[nodiscard]] double reductionPercent(const OpPowerModel& model) const;

  /// Resolved activation condition of node `n` (TRUE when ungated).
  [[nodiscard]] const GateDnf& condition(NodeId n) const { return conditions.of(n); }

  [[nodiscard]] Rational averageOf(ResourceClass rc) const {
    return averageExecuted[unitIndex(rc)];
  }
};

/// Analyze a power-managed design; gating information comes from the
/// transform (and the shared-gating pass, if it ran). With a budget, the
/// BDD arenas honor its node cap and exhaustion mid-analysis degrades the
/// remaining nodes to bounded-error estimates instead of aborting; either
/// way a node whose exact probability overflows Rational falls back to
/// BddManager::probabilityApprox with an explicit error bar.
[[nodiscard]] ActivationResult analyzeActivation(const PowerManagedDesign& design,
                                                 const RunBudget* budget = nullptr);

}  // namespace pmsched
