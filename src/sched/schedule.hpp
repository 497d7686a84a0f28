#pragma once
// A complete schedule: the assignment of every scheduled node to a control
// step, plus derived resource usage. Produced by the list scheduler,
// validated against the graph (including control edges).

#include <string>
#include <vector>

#include "cdfg/graph.hpp"
#include "sched/latency.hpp"
#include "sched/resources.hpp"

namespace pmsched {

class Schedule {
 public:
  Schedule() = default;
  Schedule(const Graph& g, int steps);

  [[nodiscard]] int steps() const { return steps_; }

  /// Control step (1-based) of a scheduled node.
  [[nodiscard]] int stepOf(NodeId n) const { return step_.at(n); }
  void place(NodeId n, int step) { step_.at(n) = step; }
  [[nodiscard]] bool isPlaced(NodeId n) const { return step_.at(n) != 0; }

  /// The scheduled nodes of every step in one pass: entry s (1..steps())
  /// lists the nodes placed in step s, ascending by id; entry 0 is empty.
  [[nodiscard]] std::vector<std::vector<NodeId>> nodesByStep(const Graph& g) const;

  /// Per-class concurrent usage of each step. Multi-cycle operations
  /// occupy their unit for `model.latencyOf(...)` consecutive steps.
  [[nodiscard]] std::vector<ResourceVector> usagePerStep(
      const Graph& g, const LatencyModel& model = LatencyModel::unit()) const;

  /// Component-wise max over steps: the units this schedule requires.
  [[nodiscard]] ResourceVector unitsRequired(
      const Graph& g, const LatencyModel& model = LatencyModel::unit()) const;

  /// Units required when execution overlaps modulo `ii` steps (pipelining
  /// with initiation interval `ii`): usage folds across stages.
  [[nodiscard]] ResourceVector unitsRequiredModulo(
      const Graph& g, int ii, const LatencyModel& model = LatencyModel::unit()) const;

  /// Throws SynthesisError if any precedence (data or control) edge is
  /// violated, a node is unplaced, a step is out of [1, steps], or a
  /// multi-cycle operation overruns the budget.
  void validate(const Graph& g, const LatencyModel& model = LatencyModel::unit()) const;

  /// Human-readable step table (for examples and figure benches).
  [[nodiscard]] std::string render(const Graph& g) const;

 private:
  int steps_ = 0;
  std::vector<int> step_;  // 0 = unplaced / transparent
};

}  // namespace pmsched
