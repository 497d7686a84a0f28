#include "sched/timeframe.hpp"

#include <algorithm>
#include <span>

namespace pmsched {

bool TimeFrames::feasible(const Graph& g) const { return !firstInfeasible(g).has_value(); }

std::optional<NodeId> TimeFrames::firstInfeasible(const Graph& g) const {
  for (NodeId n = 0; n < g.size(); ++n)
    if (isScheduled(g.kind(n)) && asap[n] > alap[n]) return n;
  return std::nullopt;
}

TimeFrames computeTimeFrames(const Graph& g, int steps,
                             const std::vector<std::pair<NodeId, NodeId>>& extraEdges,
                             const LatencyModel& model) {
  if (steps <= 0) throw InfeasibleError("computeTimeFrames: steps must be positive");

  // Extra predecessor/successor adjacency, indexed by node (built only when
  // there are extra edges).
  const bool extra = !extraEdges.empty();
  std::vector<std::vector<NodeId>> xSucc;
  std::vector<std::vector<NodeId>> xPred;

  // The propagation order must respect the extra edges too, otherwise a
  // tentative constraint from a later-ordered node would read a stale time.
  std::vector<NodeId> extraOrder;
  std::span<const NodeId> order = g.topoOrderView();
  if (extra) {
    xSucc.resize(g.size());
    xPred.resize(g.size());
    for (const auto& [before, after] : extraEdges) {
      xSucc[before].push_back(after);
      xPred[after].push_back(before);
    }
    std::vector<int> indegree(g.size(), 0);
    for (NodeId i = 0; i < g.size(); ++i)
      indegree[i] = static_cast<int>(g.fanins(i).size() + g.controlPredecessors(i).size() +
                                     xPred[i].size());
    std::vector<NodeId> ready;
    for (NodeId i = 0; i < g.size(); ++i)
      if (indegree[i] == 0) ready.push_back(i);
    extraOrder.reserve(g.size());
    while (!ready.empty()) {
      const NodeId n = ready.back();
      ready.pop_back();
      extraOrder.push_back(n);
      auto relax = [&](NodeId s) {
        if (--indegree[s] == 0) ready.push_back(s);
      };
      for (const NodeId s : g.fanouts(n)) relax(s);
      for (const NodeId s : g.controlSuccessors(n)) relax(s);
      for (const NodeId s : xSucc[n]) relax(s);
    }
    if (extraOrder.size() != g.size())
      throw SynthesisError("computeTimeFrames: extra edges create a cycle");
    order = extraOrder;
  }

  TimeFrames tf;
  tf.steps = steps;
  tf.asap.assign(g.size(), 0);
  tf.alap.assign(g.size(), steps);

  // Forward: asap[n] = earliest start step (scheduled) or the time its
  // value is available (transparent). An operation with latency L started
  // at step s finishes at s+L-1; its value is ready after that step.
  for (const NodeId n : order) {
    int avail = 0;
    auto relax = [&](NodeId p) {
      const int ready = isScheduled(g.kind(p))
                            ? tf.asap[p] + model.latencyOf(g.kind(p)) - 1
                            : tf.asap[p];
      avail = std::max(avail, ready);
    };
    for (const NodeId p : g.fanins(n)) relax(p);
    for (const NodeId p : g.controlPredecessors(n)) relax(p);
    if (extra)
      for (const NodeId p : xPred[n]) relax(p);
    tf.asap[n] = isScheduled(g.kind(n)) ? avail + 1 : avail;
  }

  // Backward: alap[n] = latest start step such that n finishes before every
  // consumer starts (transparent consumers relay a ready-time deadline).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId n = *it;
    const bool schedN = isScheduled(g.kind(n));
    const int latencyN = schedN ? model.latencyOf(g.kind(n)) : 0;
    int latest = schedN ? steps - latencyN + 1 : steps;
    auto relax = [&](NodeId s) {
      if (isScheduled(g.kind(s))) {
        // n must be ready (asap-style) before consumer s starts:
        // scheduled n: start(n) + latencyN - 1 <= start(s) - 1;
        // transparent n: its value (a ready time) must exist a step before
        // s starts, i.e. by start(s) - 1 — not start(s), which would let a
        // producer behind a wire start in its consumer's step.
        latest = std::min(latest, schedN ? tf.alap[s] - latencyN : tf.alap[s] - 1);
      } else {
        // Transparent consumer relays a "value ready by" deadline.
        latest = std::min(latest, tf.alap[s] - (latencyN > 0 ? latencyN - 1 : 0));
      }
    };
    for (const NodeId s : g.fanouts(n)) relax(s);
    for (const NodeId s : g.controlSuccessors(n)) relax(s);
    if (extra)
      for (const NodeId s : xSucc[n]) relax(s);
    tf.alap[n] = latest;
  }

  return tf;
}

}  // namespace pmsched
