#pragma once
// Design-space exploration: one latency sweep, one warm oracle run.
//
// The paper evaluates its transform one (latency, resources) point at a
// time; re-running the whole pipeline per sweep point costs
// O(points × full-run). This driver amortizes the sweep: it runs the full
// pipeline only until the step budget SATURATES — the point past which the
// transform and the shared-gating pass provably make identical decisions at
// every looser budget — and from there on reuses the committed base design
// in place (read by const reference, never copied),
// re-running only the steps-dependent tail (resource minimization, list
// schedule, binding, controller) per point, with exact dominance pruning of
// points that cannot enter the latency/power/area Pareto front: a point is
// skipped unminimized when the pigeonhole area bound unitLowerBound() at its
// budget is already dominated, and after minimization when its area is.
// Minimized area is not monotone in the budget, so no cutoff may assume it.
//
// The saturation certificate (docs/EXPLORE.md has the monotonicity
// argument):
//   * the run did not degrade,
//   * managedCount() equals the graph's full candidate count (every mux
//     with gated work was managed — no slack rejections in the transform),
//   * the shared-gating pass rejected zero probeworthy candidates for slack.
// Feasibility of a fixed control-edge set is monotone in the step budget,
// so past a saturated point every probe both passes repeat verbatim —
// the design differs only in `steps` and the recomputed time frames, and
// the activation analysis (which depends on neither) is byte-identical.
// Every emitted point is therefore bit-identical to the one-shot `pmsched`
// run at that step budget; the test suite pins that claim against a plain
// per-point loop, one full run per budget (tests/explore_reference.hpp).

#include <string>
#include <vector>

#include "cdfg/graph.hpp"
#include "sched/power_transform.hpp"
#include "server/service.hpp"

namespace pmsched {

class RunBudget;

/// One resolved sweep request (the CLI's --explore-* flags / the server's
/// "explore" op).
struct ExploreRequest {
  Graph graph;
  int minSteps = 0;  ///< first step budget; 0 = the critical path length
  int maxSteps = 0;  ///< last step budget; 0 = minSteps + span
  int span = 8;      ///< sweep width when maxSteps is derived
  MuxOrdering ordering = MuxOrdering::OutputFirst;
  bool optimal = false;
  bool shared = true;
};

/// One Pareto-front point. `summary` is exactly the one-shot run's summary
/// at this step budget; power/area are the exact doubles the dominance rule
/// compared (rendered via the summary's fixed-digit strings).
struct ExplorePoint {
  int steps = 0;
  DesignSummary summary;
  double power = 0;  ///< datapath power reduction % (higher is better)
  double area = 0;   ///< UnitCosts::defaults().costOf(minimized units)
};

/// A sweep point that produced no design: infeasible step budget, a
/// controller-synthesis failure at that budget (the one-shot run fails the
/// same deterministic way), or an injected "explore-point" fault. Typed, so
/// callers can tell them apart.
struct ExploreSkip {
  int steps = 0;
  std::string kind;  ///< "infeasible" | "synthesis" | "fault"
  std::string note;
};

/// Sweep accounting. Deterministic and thread-count-invariant — the JSON
/// these render into is byte-diffed across thread counts in CI.
struct ExploreStats {
  int pointsSwept = 0;     ///< points entered (skips included, pruned included)
  int fullRuns = 0;        ///< full pipeline runs (pre-saturation)
  int amortizedRuns = 0;   ///< tail-only runs from the saturated base
  int pruned = 0;          ///< saturated points skipped as dominated before the
                           ///< tail: by the area bound, or by minimized area
  int dominated = 0;       ///< fully evaluated points kept off the front
  int candidates = 0;      ///< muxes with gated work (the certificate target)
  int saturationSteps = -1;   ///< first saturated budget (-1: never saturated)
  int relaxedBoundSteps = -1; ///< min budget where ALL candidate edges fit jointly
};

struct ExploreResult {
  std::string circuit;
  int ops = 0;
  int criticalPath = 0;
  int minSteps = 0;
  int maxSteps = 0;
  MuxOrdering ordering = MuxOrdering::OutputFirst;
  bool optimal = false;
  bool shared = true;
  std::vector<ExplorePoint> front;  ///< ascending steps; append-only Pareto front
  std::vector<ExploreSkip> skipped;
  ExploreStats stats;
  /// Budget exhausted mid-sweep: the front is the clean prefix of the
  /// unbudgeted sweep's front (points are dropped whole, never emitted
  /// half-finished) and the reason is "explore".
  bool degraded = false;
  std::string degradeReason;
};

/// The amortized sweep. Budget exhaustion stops the sweep at a monotone
/// prefix; an infeasible point or an injected explore-point fault skips that
/// point (typed) and keeps sweeping. Throws only on malformed graphs.
[[nodiscard]] ExploreResult exploreDesignSpace(const ExploreRequest& req,
                                               const RunBudget* budget = nullptr);

/// The whole result as one compact JSON object ("mode" is always
/// "amortized"). Contains no timing or host-dependent fields: two runs at
/// different thread counts render byte-identical documents (the CI
/// explore-smoke job diffs them).
[[nodiscard]] std::string renderExploreJson(const ExploreResult& res);

/// Just the "front" array — what the differential against the per-point
/// reference byte-compares (the stats differ by design).
[[nodiscard]] std::string renderExploreFrontJson(const ExploreResult& res);

}  // namespace pmsched
