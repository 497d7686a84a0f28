#pragma once
// ASAP/ALAP time frames ("slack") for a CDFG under a control-step budget.
//
// Frames are the paper's working state: its algorithm (Fig. 3) repeatedly
// *tightens* ASAP/ALAP values per multiplexor and commits or reverts the
// tightening depending on feasibility (ASAP <= ALAP for every node).

#include <vector>

#include "cdfg/graph.hpp"
#include "sched/latency.hpp"

namespace pmsched {

/// ASAP/ALAP step for every node (1-based control steps).
///
/// For scheduled nodes, asap/alap bound the step the node may occupy.
/// For transparent nodes (inputs, constants, wires, outputs) the values are
/// availability times: the step after which the value exists (0 = before
/// step 1). Those nodes are never placed, but carrying their times makes
/// forward/backward propagation uniform.
struct TimeFrames {
  int steps = 0;
  std::vector<int> asap;
  std::vector<int> alap;

  /// True iff every scheduled node has a non-empty frame.
  [[nodiscard]] bool feasible(const Graph& g) const;

  /// alap - asap of a node (only meaningful for scheduled nodes).
  [[nodiscard]] int mobility(NodeId n) const { return alap[n] - asap[n]; }

  /// First infeasible node if any, for diagnostics.
  [[nodiscard]] std::optional<NodeId> firstInfeasible(const Graph& g) const;

  /// Move the frames to budget `newSteps` (positive) in place. ASAP does
  /// not depend on the budget, and every ALAP is the budget plus a constant
  /// of the graph, edges and latency model, so the result is exactly what
  /// computeTimeFrames() computes at `newSteps` — without a sweep.
  void rebudget(int newSteps) {
    for (int& a : alap) a += newSteps - steps;
    steps = newSteps;
  }
};

/// Compute frames for `steps` control steps over data + control edges.
///
/// Additional precedence constraints can be supplied as `extraEdges`
/// (before, after) pairs — the paper's tentative per-mux constraints —
/// without mutating the graph. asap/alap are *start* steps; an operation
/// with latency L occupies [start, start+L-1] under `model`.
[[nodiscard]] TimeFrames computeTimeFrames(
    const Graph& g, int steps,
    const std::vector<std::pair<NodeId, NodeId>>& extraEdges = {},
    const LatencyModel& model = LatencyModel::unit());

}  // namespace pmsched
