#pragma once
// Test-only references for the power-management transform
// (src/sched/power_transform.cpp), written from the paper's Fig. 3 on the
// public API alone:
//
//  * applyPowerManagementReference: the greedy loop with the time frames
//    recomputed from scratch per mux (computeTimeFrames over every edge
//    committed so far plus the mux's own); a slack reject names the first
//    infeasible node in id order, which is what nameSlackRejects() replays;
//  * applyPowerManagementOptimalReference: the plain include/exclude DFS
//    over the most valuable candidates, one frame computation per search
//    node, then the same greedy offer of the rest.
//
// Both derive the mux order and the savings weights themselves (from
// distanceToOutput and computeGatedSets). The differential suite
// (test_pm_differential.cpp) requires the library to produce bit-identical
// designs: managed sets, gated sets, control edges, frames and conditions.

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/analysis.hpp"
#include "cdfg/graph.hpp"
#include "sched/power_transform.hpp"
#include "sched/timeframe.hpp"

namespace pmsched {

namespace reference_detail {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// The paper's §V unit weights, used only to rank muxes by savings.
inline double savingsWeight(ResourceClass rc) {
  switch (rc) {
    case ResourceClass::Mux: return 1;
    case ResourceClass::Comparator: return 4;
    case ResourceClass::Adder: return 3;
    case ResourceClass::Subtractor: return 3;
    case ResourceClass::Multiplier: return 20;
    case ResourceClass::Logic: return 1;
    case ResourceClass::Shifter: return 2;
    case ResourceClass::None: return 0;
  }
  return 0;
}

/// Expected power a mux's gating saves: each gated unit idles half the time.
inline double savingsOf(const Graph& g, const GatedSets& sets) {
  double s = 0;
  for (const std::vector<NodeId>* side : {&sets.gatedTrue, &sets.gatedFalse})
    for (const NodeId n : *side)
      if (isScheduled(g.kind(n))) s += savingsWeight(resourceClassOf(g.kind(n))) * 0.5;
  return s;
}

/// Some gated node occupies a unit.
inline bool hasGatedWork(const Graph& g, const GatedSets& sets) {
  for (const std::vector<NodeId>* side : {&sets.gatedTrue, &sets.gatedFalse})
    for (const NodeId n : *side)
      if (isScheduled(g.kind(n))) return true;
  return false;
}

/// Control edges of one mux: its select producer to every top of both
/// gated sets; none when the select comes straight from an input/constant.
inline EdgeList controlEdgesOf(const Graph& g, NodeId mux, const GatedSets& sets) {
  EdgeList edges;
  const NodeId ctrl = traceSelectProducer(g, mux);
  if (!isScheduled(g.kind(ctrl))) return edges;
  for (const NodeId t : sets.topTrue) edges.emplace_back(ctrl, t);
  for (const NodeId t : sets.topFalse) edges.emplace_back(ctrl, t);
  return edges;
}

/// Muxes in the order the strategy offers them, ties by id.
inline std::vector<NodeId> muxOrder(const Graph& g, MuxOrdering ordering) {
  std::vector<NodeId> muxes = g.nodesOfKind(OpKind::Mux);
  std::vector<double> key(g.size(), 0);  // ascending key = offered first
  if (ordering == MuxOrdering::BySavings) {
    for (const NodeId m : muxes) key[m] = -savingsOf(g, computeGatedSets(g, m));
  } else {
    const std::vector<int> dist = distanceToOutput(g);
    const double sign = ordering == MuxOrdering::OutputFirst ? 1 : -1;
    for (const NodeId m : muxes) key[m] = sign * dist[m];
  }
  std::sort(muxes.begin(), muxes.end(), [&](NodeId a, NodeId b) {
    return key[a] != key[b] ? key[a] < key[b] : a < b;
  });
  return muxes;
}

/// The greedy loop over `candidates`, frames from scratch per mux.
inline PowerManagedDesign transform(const Graph& g, int steps,
                                    const std::vector<NodeId>& candidates,
                                    const LatencyModel& model) {
  PowerManagedDesign design;
  design.graph = g.clone();
  design.steps = steps;
  design.latency = model;
  design.gates.assign(g.size(), {});
  design.sharedGating.assign(g.size(), {});

  EdgeList committed;
  for (const NodeId m : candidates) {
    const GatedSets sets = computeGatedSets(g, m);
    MuxPmInfo info;
    info.mux = m;
    info.gatedTrue = sets.gatedTrue;
    info.gatedFalse = sets.gatedFalse;
    info.topTrue = sets.topTrue;
    info.topFalse = sets.topFalse;
    if (!hasGatedWork(g, sets)) {
      info.reason = "no operations are exclusive to one data input";
      design.muxes.push_back(std::move(info));
      continue;
    }
    const NodeId ctrl = traceSelectProducer(g, m);
    if (isScheduled(g.kind(ctrl))) info.lastControl = ctrl;
    const EdgeList edges = controlEdgesOf(g, m, sets);

    EdgeList tentative = committed;
    tentative.insert(tentative.end(), edges.begin(), edges.end());
    if (const auto bad = computeTimeFrames(g, steps, tentative, model).firstInfeasible(g)) {
      info.reason = "insufficient slack: node '" + g.node(*bad).name +
                    "' would need ASAP > ALAP";
      design.muxes.push_back(std::move(info));
      continue;
    }
    committed = std::move(tentative);
    info.managed = true;
    for (const NodeId n : info.gatedTrue) design.gates[n].push_back({m, MuxSide::True});
    for (const NodeId n : info.gatedFalse) design.gates[n].push_back({m, MuxSide::False});
    design.muxes.push_back(std::move(info));
  }
  for (const auto& [before, after] : committed) design.graph.addControlEdge(before, after);
  design.frames = computeTimeFrames(design.graph, steps, {}, model);
  return design;
}

}  // namespace reference_detail

/// From-scratch greedy transform: same contract as applyPowerManagement
/// without a budget, slack rejects named.
inline PowerManagedDesign applyPowerManagementReference(
    const Graph& g, int steps, MuxOrdering ordering = MuxOrdering::OutputFirst,
    const LatencyModel& model = LatencyModel::unit()) {
  g.validate();
  return reference_detail::transform(g, steps, reference_detail::muxOrder(g, ordering), model);
}

/// From-scratch exact search: same contract as applyPowerManagementOptimal
/// without a budget.
inline PowerManagedDesign applyPowerManagementOptimalReference(const Graph& g, int steps,
                                                               std::size_t maxMuxes = 24) {
  using namespace reference_detail;
  g.validate();
  // Candidates with gated work, by savings descending (stable on id order).
  struct Candidate {
    NodeId mux;
    double savings;
    EdgeList edges;
  };
  std::vector<Candidate> cands;
  for (const NodeId m : g.nodesOfKind(OpKind::Mux)) {
    const GatedSets sets = computeGatedSets(g, m);
    if (hasGatedWork(g, sets)) cands.push_back({m, savingsOf(g, sets), controlEdgesOf(g, m, sets)});
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Candidate& a, const Candidate& b) { return a.savings > b.savings; });

  const auto feasible = [&](const std::vector<bool>& chosen) {
    EdgeList edges;
    for (std::size_t i = 0; i < cands.size(); ++i)
      if (chosen[i]) edges.insert(edges.end(), cands[i].edges.begin(), cands[i].edges.end());
    return computeTimeFrames(g, steps, edges).feasible(g);
  };

  // Include before exclude; a branch that cannot beat the best is cut, so
  // the first subset found at the maximum value wins.
  const std::size_t window = std::min(cands.size(), maxMuxes);
  std::vector<double> rest(window + 1, 0);  // savings still available from i on
  for (std::size_t i = window; i-- > 0;) rest[i] = rest[i + 1] + cands[i].savings;
  std::vector<bool> current(cands.size(), false);
  std::vector<bool> best(cands.size(), false);
  double bestValue = -1;
  const auto dfs = [&](const auto& self, std::size_t i, double value) -> void {
    if (value + rest[i] <= bestValue) return;
    if (i == window) {
      bestValue = value;
      best = current;
      return;
    }
    current[i] = true;
    if (feasible(current)) self(self, i + 1, value + cands[i].savings);
    current[i] = false;
    self(self, i + 1, value);
  };
  dfs(dfs, 0, 0);

  for (std::size_t i = window; i < cands.size(); ++i) {
    best[i] = true;
    if (!feasible(best)) best[i] = false;
  }
  std::vector<NodeId> chosen;
  for (std::size_t i = 0; i < cands.size(); ++i)
    if (best[i]) chosen.push_back(cands[i].mux);
  return transform(g, steps, chosen, LatencyModel::unit());
}

}  // namespace pmsched
