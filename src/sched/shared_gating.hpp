#pragma once
// Shared (OR-composed) gating — an extension beyond the paper's per-mux rule.
//
// The paper's transform skips any operation whose result fans out "to other
// nodes besides the current multiplexor". Yet the paper's own dealer row
// (+ = 1.75 at 6 control steps) implies an adder that runs 3 cycles in 4 —
// a probability only reachable when a unit shared by several conditional
// consumers is activated under the OR of their conditions. This pass
// implements exactly that:
//
//   For every operation not already gated, if EVERY data use of its result
//   is conditional (an input of a managed mux's gated side, or a gated /
//   shared-gated consumer), the union of the consumers' activation
//   conditions — a DNF over select literals — becomes the operation's
//   latch-enable, provided the schedule can place the operation after all
//   selects in the (simplified) union's support. When the operation is a
//   managed mux, its condition also reaches every node of its gated cones
//   (resolveActivationConditions), so the selects must also precede the
//   tops of those cones: each cone node comes after some top.
//
// Consumers are processed before producers (reverse topological order), so
// shared conditions cascade upstream.

#include "sched/power_transform.hpp"

namespace pmsched {

/// Which gating rule the evaluation flow applies.
enum class GatingMode {
  Strict,  ///< paper's rule only (per-mux exclusive cones)
  Shared,  ///< paper's rule + OR-composed gating of shared operations
};

/// Run the shared-gating pass over an already-transformed design.
/// Inserts the required control edges into design.graph and fills
/// design.sharedGating. Returns the number of newly gated operations.
/// Each candidate is one batch of edges from every scheduled select of its
/// condition's support to the candidate and, for a managed mux, to every
/// top of its gated cones: the pass rejects it when the batch would close a
/// cycle (TimeFrameOracle::closesCycle, exact on such a complete bipartite
/// batch) and otherwise takes the oracle's slack verdict
/// (TimeFrameOracle::tryCommit), so a reject repairs no frame.
/// With a budget, the pass stops at the last accepted gate once the budget
/// is exhausted or the DNF arena outgrows the term cap (the pass holds
/// interned handles, so it cannot trim — it stops gating instead); the
/// design stays valid and the degraded flag is set.
///
/// `slackRejects`, when given, receives the number of candidates the
/// oracle rejected for schedulability (structural rejections, cycles
/// included, are not counted). Zero means every candidate that could be
/// gated was gated — the saturation half of the explore sweep's
/// certificate (docs/EXPLORE.md): the same pass at a looser step budget
/// makes identical decisions.
///
/// The test suite keeps a from-scratch reference of this pass
/// (tests/shared_gating_reference.hpp).
int applySharedGating(PowerManagedDesign& design, const RunBudget* budget = nullptr,
                      int* slackRejects = nullptr);

}  // namespace pmsched
