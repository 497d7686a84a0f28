#pragma once
// Resource-constrained list scheduling, standing in for HYPER's scheduler.
//
// Priority function: smallest ALAP first (least slack), then smallest
// mobility, then node id for determinism. Handles the control edges the
// power-management transform inserts exactly like data precedence.
//
// The scheduler is event-driven. Each node counts its unresolved
// predecessors; placing a node (or a wire/output becoming available)
// notifies its data and control successors, and a scheduled node whose
// inputs are all available lands in the bucket of the step after its last
// input (an intrusive per-step list). Each step sorts its arrivals by
// priority and merges them into a ready list that stays sorted and keeps
// the nodes earlier steps deferred, so a run costs
// O((V + E) log V + deferred ready-list visits) instead of a scan of every
// unplaced node per step.
//
// minimizeSchedule() runs the scheduler once per limits vector at fixed
// frames. One scratch serves the whole search: the frames are checked once,
// the seeded state (pending counts, the times the sources relay, the
// arrivals that need no placement) is built once and copied into each run,
// and the ready, merge, usage and relay buffers are reused.

#include <optional>

#include "cdfg/graph.hpp"
#include "sched/resources.hpp"
#include "sched/schedule.hpp"
#include "sched/timeframe.hpp"

namespace pmsched {

/// Outcome of a list-scheduling attempt.
struct ListScheduleResult {
  std::optional<Schedule> schedule;  ///< empty on failure
  /// On failure: the resource class whose shortage blocked a zero-slack
  /// operation (useful to drive the minimum-resource search).
  ResourceClass blockedOn = ResourceClass::None;
  std::string message;
};

/// Schedule `g` into `steps` control steps using at most `limits` units per
/// class. Optionally fold resource usage modulo `ii` (pipelining with
/// initiation interval `ii`; 0 = no folding). Multi-cycle operations (per
/// `model`) occupy their unit for consecutive steps.
[[nodiscard]] ListScheduleResult listSchedule(const Graph& g, int steps,
                                              const ResourceVector& limits, int ii = 0,
                                              const LatencyModel& model = LatencyModel::unit());

/// The winning run of the minimum-resource search.
struct MinimizedSchedule {
  ResourceVector units;  ///< what `schedule` actually uses
  /// Identical to listSchedule(g, steps, units, ii, model).schedule: usage
  /// only grows during a run, so the run that found `units` at looser
  /// limits made every decision the same way it would at `units`.
  Schedule schedule;
  int runs = 0;  ///< list-scheduling runs the search made
};

/// Pigeonhole lower bound on the units of ANY schedule of `g` into `steps`
/// control steps: every operation holds a unit of its class for at least
/// one of the `window` slots (`steps`, or min(ii, steps) when usage folds
/// modulo `ii`), so class c needs at least ceil(ops_c / window) units. Never
/// rises with `steps` — unlike minimizeSchedule()'s area, which can.
[[nodiscard]] ResourceVector unitLowerBound(const Graph& g, int steps, int ii = 0);
/// The same bound from `g`'s per-class operation counts (countByClass()),
/// for a caller that bounds one graph at many budgets.
[[nodiscard]] ResourceVector unitLowerBound(const ResourceVector& opsPerClass, int steps,
                                            int ii = 0);

/// Smallest-cost resource vector for which list scheduling succeeds at the
/// given step budget, found by demand-driven growth from unitLowerBound(),
/// together with its schedule. Throws InfeasibleError when even
/// unlimited units fail (i.e. the precedence constraints alone exceed the
/// step budget).
[[nodiscard]] MinimizedSchedule minimizeSchedule(const Graph& g, int steps,
                                                 const UnitCosts& costs = UnitCosts::defaults(),
                                                 int ii = 0,
                                                 const LatencyModel& model = LatencyModel::unit());

/// minimizeSchedule() over frames the caller already holds, such as a
/// design's committed frames after the transform and shared gating. `tf`
/// must equal computeTimeFrames(g, steps, {}, model); std::invalid_argument
/// when its budget is not `steps`.
[[nodiscard]] MinimizedSchedule minimizeSchedule(const Graph& g, int steps, const TimeFrames& tf,
                                                 int ii = 0,
                                                 const LatencyModel& model = LatencyModel::unit());

/// minimizeSchedule(...).units.
[[nodiscard]] ResourceVector minimizeResources(const Graph& g, int steps,
                                               const UnitCosts& costs = UnitCosts::defaults(),
                                               int ii = 0,
                                               const LatencyModel& model = LatencyModel::unit());

}  // namespace pmsched
