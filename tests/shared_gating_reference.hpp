#pragma once
// Test-only reference for shared gating (src/sched/shared_gating.cpp): the
// pass as first written, on GateDnf vectors at every condition-algebra
// call, with the frames recomputed from scratch per candidate and the
// cycle check a plain DFS over the live edges plus the candidate's batch.
// A managed mux's batch also orders its selects before the tops of its
// gated cones (taken from design.muxes), whose nodes inherit its
// condition. The differential suite (test_pm_differential.cpp) requires
// applySharedGating to agree with it on every design: the same gated nodes
// and conditions, control edges, frames and slack-reject count.

#include <optional>
#include <utility>
#include <vector>

#include "sched/condition.hpp"
#include "sched/power_transform.hpp"
#include "sched/timeframe.hpp"

namespace pmsched {

namespace reference_detail {

class SharedGatingPassReference {
 public:
  explicit SharedGatingPassReference(PowerManagedDesign& design)
      : design_(design), g_(design.graph), extraSucc_(g_.size()) {
    cond_.resize(g_.size());
    need_.resize(g_.size());
  }

  /// Tops of the gated cones of `n` when it is a managed mux, else none.
  std::vector<NodeId> topsOf(NodeId n) const {
    std::vector<NodeId> tops;
    for (const MuxPmInfo& info : design_.muxes) {
      if (info.mux != n || !info.managed) continue;
      tops.insert(tops.end(), info.topTrue.begin(), info.topTrue.end());
      tops.insert(tops.end(), info.topFalse.begin(), info.topFalse.end());
    }
    return tops;
  }

  /// Candidates rejected because the frames turned infeasible.
  [[nodiscard]] int slackRejects() const { return slackRejects_; }

  int run() {
    const std::vector<NodeId> order = g_.topoOrder();
    int gated = 0;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId n = *it;
      if (!isScheduled(g_.kind(n))) continue;
      if (!design_.gates[n].empty() || !design_.sharedGating[n].empty()) continue;
      if (tryGate(n)) ++gated;
    }
    for (const auto& [before, after] : committed_) g_.addControlEdge(before, after);
    design_.frames = computeTimeFrames(g_, design_.steps, {}, design_.latency);
    return gated;
  }

 private:
  /// Activation condition of node n as a resolved DNF.
  const GateDnf& condOf(NodeId n) {
    if (cond_[n]) return *cond_[n];
    GateDnf result;
    if (!design_.sharedGating[n].empty()) {
      result = design_.sharedGating[n];
    } else {
      result = dnfTrue();
      for (const NodeGate& gate : design_.gates[n]) {
        GateDnf lit{GateTerm{
            GateLiteral{traceSelectProducer(g_, gate.mux), gate.side == MuxSide::True}}};
        result = andDnf(result, lit);
        result = andDnf(result, condOf(gate.mux));
      }
    }
    cond_[n] = std::move(result);
    return *cond_[n];
  }

  /// Union of the conditions under which n's *value* is used, over all data
  /// consumers. TRUE as soon as any consumer needs it unconditionally.
  const GateDnf& needOf(NodeId n) {
    if (need_[n]) return *need_[n];
    GateDnf result;  // FALSE
    bool saturated = false;
    for (const NodeId f : g_.fanouts(n)) {
      if (saturated) break;
      const Node& consumer = g_.node(f);
      GateDnf use;
      if (consumer.kind == OpKind::Output) {
        use = dnfTrue();
      } else if (consumer.kind == OpKind::Wire) {
        use = needOf(f);  // transparent: whoever needs the wire needs n
      } else if (consumer.kind == OpKind::Mux) {
        // Which operand(s) of the mux does n feed?
        const NodeId sel = traceSelectProducer(g_, f);
        for (std::size_t idx = 0; idx < consumer.operands.size(); ++idx) {
          if (consumer.operands[idx] != n) continue;
          if (idx == 0) {
            // Select input: needed whenever the mux computes at all.
            for (const GateTerm& t : condOf(f)) use.push_back(t);
          } else {
            // Data input: needed when the mux computes AND selects it.
            const GateLiteral lit{sel, idx == 1};
            GateDnf sideCond = andDnf(condOf(f), GateDnf{GateTerm{lit}});
            for (GateTerm& t : sideCond) use.push_back(std::move(t));
          }
        }
        use = simplifyDnf(std::move(use));
      } else {
        use = condOf(f);
      }
      for (GateTerm& t : use) result.push_back(std::move(t));
      result = simplifyDnf(std::move(result));
      if (dnfIsTrue(result)) {
        result = dnfTrue();
        saturated = true;
      }
    }
    need_[n] = std::move(result);
    return *need_[n];
  }

  /// Does `from` reach `to` over data, control and committed edges?
  bool reaches(NodeId from, NodeId to) const {
    std::vector<char> seen(g_.size(), 0);
    std::vector<NodeId> stack{from};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      if (v == to) return true;
      if (seen[v]) continue;
      seen[v] = 1;
      for (const NodeId s : g_.fanouts(v)) stack.push_back(s);
      for (const NodeId s : g_.controlSuccessors(v)) stack.push_back(s);
      for (const NodeId s : extraSucc_[v]) stack.push_back(s);
    }
    return false;
  }

  bool tryGate(NodeId n) {
    if (g_.fanouts(n).empty()) return false;
    const GateDnf& need = needOf(n);
    if (dnfIsTrue(need) || need.empty()) return false;

    // The condition reaches the gated cones of a managed mux too, whose
    // nodes each follow one of the cones' tops.
    const std::vector<NodeId> tops = topsOf(n);
    std::vector<std::pair<NodeId, NodeId>> tentative;
    for (const NodeId sel : dnfSupport(need)) {
      if (!isScheduled(g_.kind(sel))) continue;  // PI-driven: free
      tentative.emplace_back(sel, n);
      for (const NodeId t : tops) tentative.emplace_back(sel, t);
    }
    // Neither n nor a top may wait for a select it reaches: with the batch
    // in place, no new edge's target may reach its source.
    for (const auto& [before, after] : tentative) extraSucc_[before].push_back(after);
    bool cycle = false;
    for (const auto& [sel, target] : tentative) cycle = cycle || reaches(target, sel);
    for (const auto& [before, after] : tentative) extraSucc_[before].pop_back();
    if (cycle) return false;

    std::vector<std::pair<NodeId, NodeId>> all = committed_;
    all.insert(all.end(), tentative.begin(), tentative.end());
    if (!computeTimeFrames(g_, design_.steps, all, design_.latency).feasible(g_)) {
      ++slackRejects_;
      return false;
    }

    for (const auto& [before, after] : tentative) extraSucc_[before].push_back(after);
    committed_.insert(committed_.end(), tentative.begin(), tentative.end());
    design_.sharedGating[n] = need;
    cond_[n].reset();  // recompute on demand with the new gating
    return true;
  }

  PowerManagedDesign& design_;
  Graph& g_;
  std::vector<std::pair<NodeId, NodeId>> committed_;
  std::vector<std::vector<NodeId>> extraSucc_;  ///< committed_ as adjacency
  std::vector<std::optional<GateDnf>> cond_;
  std::vector<std::optional<GateDnf>> need_;
  int slackRejects_ = 0;
};

}  // namespace reference_detail

/// From-scratch shared gating: same contract as applySharedGating without
/// a budget.
inline int applySharedGatingReference(PowerManagedDesign& design, int* slackRejects = nullptr) {
  reference_detail::SharedGatingPassReference pass(design);
  const int gated = pass.run();
  if (slackRejects != nullptr) *slackRejects = pass.slackRejects();
  return gated;
}

}  // namespace pmsched
