#include "sched/shared_gating.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "sched/bdd.hpp"
#include "sched/condition.hpp"
#include "sched/timeframe_oracle.hpp"
#include "support/fault_injector.hpp"
#include "support/run_budget.hpp"

namespace pmsched {

namespace {

// ---------------------------------------------------------------------------
// Oracle-backed pass on interned DNF handles.
//
// needOf/condOf recurse over the consumer DAG and call the DNF engine once
// per consumer of every candidate, so the pass owns a DnfEngine and keeps
// the interned handles in its memo tables: terms are encoded exactly once
// (at the design_.gates / design_.sharedGating boundary) and every
// conjoin/disjoin below runs directly on term ids. The reference pass
// (further down) keeps the original decode/encode-per-call flow; the
// differential tests assert bit-identical gating decisions.
// ---------------------------------------------------------------------------

class SharedGatingPass {
 public:
  explicit SharedGatingPass(PowerManagedDesign& design, const RunBudget* budget = nullptr)
      : design_(design),
        g_(design.graph),
        oracle_(g_, design.steps, design.latency, "shared-gating"),
        budget_(budget) {
    cond_.resize(g_.size());
    need_.resize(g_.size());
  }

  /// Probeworthy candidates the oracle rejected for schedulability.
  [[nodiscard]] int slackRejects() const { return slackRejects_; }

  int run() {
    // Copy the order up front; control-edge insertion happens after the
    // sweep (the oracle snapshots the graph, so mutation is deferred).
    const std::vector<NodeId> order = g_.topoOrder();
    std::vector<NodeId> cands;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId n = *it;
      if (!isScheduled(g_.kind(n))) continue;
      if (!design_.gates[n].empty() || !design_.sharedGating[n].empty()) continue;
      cands.push_back(n);
    }
    // gates/sharedGating of candidates only change when a candidate is
    // accepted (each node is visited once), so the up-front filter sees
    // exactly what the per-turn filter would.
    int gated = 0;
    for (const NodeId n : cands) {
      if (budgetStop()) {
        markDegraded();
        break;
      }
      if (tryGate(n)) ++gated;
    }
    // The oracle's committed fixed point equals the from-scratch frames of
    // the augmented graph; snapshot it before mutating.
    design_.frames = oracle_.frames();
    design_.oracleFrameWrites += oracle_.frameWrites();
    for (const auto& [before, after] : committed_) g_.addControlEdge(before, after);
    return gated;
  }

 private:
  using Dnf = DnfEngine::Dnf;
  using Edge = TimeFrameOracle::Edge;

  /// True once the pass must stop accepting new gates: the global budget
  /// ran out, or the DNF arena outgrew the term cap. The pass holds live
  /// interned handles (cond_/need_), so it cannot trim the arena — per the
  /// degradation contract it stops at the last accepted gate instead.
  [[nodiscard]] bool budgetStop() {
    if (budget_ == nullptr) return false;
    if (budget_->exhausted()) return true;
    return budget_->dnfTermCap() != 0 && eng_.arenaLiterals() > budget_->dnfTermCap();
  }

  void markDegraded() {
    if (design_.degraded) return;
    design_.degraded = true;
    const BudgetKind kind = budget_->exhaustedWhy().value_or(BudgetKind::DnfTerms);
    design_.degradeReason = std::string("shared gating stopped early (") +
                            budgetKindName(kind) + "); kept every gate accepted so far";
    budget_->noteDegraded("shared-gating", kind,
                          "stopped at the last accepted gate; design stays valid");
  }

  /// Activation condition of node n as an interned DNF handle.
  const Dnf& condOf(NodeId n) {
    if (cond_[n]) return *cond_[n];
    Dnf result;
    if (!design_.sharedGating[n].empty()) {
      result = eng_.intern(design_.sharedGating[n]);
    } else {
      result = eng_.trueDnf();
      for (const NodeGate& gate : design_.gates[n]) {
        const GateDnf lit{GateTerm{
            GateLiteral{traceSelectProducer(g_, gate.mux), gate.side == MuxSide::True}}};
        result = eng_.conjoin(result, eng_.intern(lit));
        result = eng_.conjoin(result, condOf(gate.mux));
      }
    }
    cond_[n] = std::move(result);
    return *cond_[n];
  }

  /// Union of the conditions under which n's *value* is used, over all data
  /// consumers. TRUE as soon as any consumer needs it unconditionally.
  const Dnf& needOf(NodeId n) {
    if (need_[n]) return *need_[n];
    Dnf result;  // FALSE
    bool saturated = false;
    for (const NodeId f : g_.fanouts(n)) {
      if (saturated) break;
      const Node& consumer = g_.node(f);
      Dnf use;
      if (consumer.kind == OpKind::Output) {
        use = eng_.trueDnf();
      } else if (consumer.kind == OpKind::Wire) {
        use = needOf(f);  // transparent: whoever needs the wire needs n
      } else if (consumer.kind == OpKind::Mux) {
        // Which operand(s) of the mux does n feed?
        std::vector<DnfEngine::TermId> terms;
        const NodeId sel = traceSelectProducer(g_, f);
        for (std::size_t idx = 0; idx < consumer.operands.size(); ++idx) {
          if (consumer.operands[idx] != n) continue;
          if (idx == 0) {
            // Select input: needed whenever the mux computes at all.
            const Dnf& cond = condOf(f);
            terms.insert(terms.end(), cond.terms.begin(), cond.terms.end());
          } else {
            // Data input: needed when the mux computes AND selects it. This
            // holds for unmanaged muxes too; it is a property of the value's
            // use, not of the gating hardware.
            const GateDnf litDnf{GateTerm{GateLiteral{sel, idx == 1}}};
            const Dnf sideCond = eng_.conjoin(condOf(f), eng_.intern(litDnf));
            terms.insert(terms.end(), sideCond.terms.begin(), sideCond.terms.end());
          }
        }
        use = eng_.simplify(std::move(terms));
      } else {
        use = condOf(f);
      }
      result = eng_.disjoin(result, use);
      if (eng_.isTrue(result)) {
        result = eng_.trueDnf();
        saturated = true;
      }
    }
    need_[n] = std::move(result);
    return *need_[n];
  }

  bool tryGate(NodeId n) {
    if (g_.fanouts(n).empty()) return false;
    Dnf need = needOf(n);
    if (eng_.isTrue(need) || need.isFalse()) return false;
    const std::vector<NodeId> support = eng_.support(need);
    for (const NodeId sel : support) {
      if (sel == n) return false;
      if (!isScheduled(g_.kind(sel))) continue;  // PI-driven select: free
      if (faninOf(sel).test(n)) return false;
    }
    std::vector<Edge> edges;
    for (const NodeId sel : support)
      if (isScheduled(g_.kind(sel))) edges.emplace_back(sel, n);

    if (budget_ != nullptr && !edges.empty()) budget_->chargeProbes();
    oracle_.push(edges, /*probe=*/true);
    if (!oracle_.feasible()) {
      oracle_.pop();
      ++slackRejects_;
      return false;
    }
    fault::point("gating-commit");
    oracle_.commit();

    committed_.insert(committed_.end(), edges.begin(), edges.end());
    design_.sharedGating[n] = eng_.decode(need);
    // condOf(n) would re-intern design_.sharedGating[n]; `need` is
    // already simplified, so the handle itself is that result.
    cond_[n] = std::move(need);
    return true;
  }

  /// Memoized data-edge transitive fanin of a select node.
  const NodeMask& faninOf(NodeId sel) {
    auto [it, inserted] = faninCache_.try_emplace(sel);
    if (inserted) it->second = g_.transitiveFanin(sel);
    return it->second;
  }

  PowerManagedDesign& design_;
  Graph& g_;
  DnfEngine eng_;
  TimeFrameOracle oracle_;
  const RunBudget* budget_ = nullptr;
  std::vector<std::pair<NodeId, NodeId>> committed_;
  std::vector<std::optional<Dnf>> cond_;
  std::vector<std::optional<Dnf>> need_;
  std::unordered_map<NodeId, NodeMask> faninCache_;
  int slackRejects_ = 0;
  /// Pipeline callers interleave this pass with code holding refs into the
  /// thread's DNF→probability manager (controller condition-class keys,
  /// mapper decode-memo keys). Pin it for the pass's lifetime so any
  /// dnfProbability call made while the sweep runs cannot trim the manager
  /// and invalidate those refs mid-pipeline (see trimDnfProbabilityManager).
  BddPin probabilityPin_{dnfProbabilityManager()};
};

// ---------------------------------------------------------------------------
// Retained from-scratch reference: GateDnf vectors at every engine call,
// frames recomputed per candidate. The executable specification for the
// interned pass above.
// ---------------------------------------------------------------------------

class SharedGatingPassReference {
 public:
  explicit SharedGatingPassReference(PowerManagedDesign& design)
      : design_(design), g_(design.graph) {
    cond_.resize(g_.size());
    need_.resize(g_.size());
  }

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
        use.clear();
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

  bool tryGate(NodeId n) {
    if (g_.fanouts(n).empty()) return false;
    const GateDnf& need = needOf(n);
    if (dnfIsTrue(need) || need.empty()) return false;

    const std::vector<NodeId> support = dnfSupport(need);
    for (const NodeId sel : support) {
      if (sel == n) return false;
      if (!isScheduled(g_.kind(sel))) continue;  // PI-driven select: free
      if (faninOf(sel).test(n)) return false;
    }

    std::vector<std::pair<NodeId, NodeId>> tentative;
    for (const NodeId sel : support)
      if (isScheduled(g_.kind(sel))) tentative.emplace_back(sel, n);

    std::vector<std::pair<NodeId, NodeId>> all = committed_;
    all.insert(all.end(), tentative.begin(), tentative.end());
    if (!computeTimeFrames(g_, design_.steps, all, design_.latency).feasible(g_)) return false;

    committed_.insert(committed_.end(), tentative.begin(), tentative.end());
    design_.sharedGating[n] = need;
    cond_[n].reset();  // recompute on demand with the new gating
    return true;
  }

  /// Memoized data-edge transitive fanin of a select node.
  const NodeMask& faninOf(NodeId sel) {
    auto [it, inserted] = faninCache_.try_emplace(sel);
    if (inserted) it->second = g_.transitiveFanin(sel);
    return it->second;
  }

  PowerManagedDesign& design_;
  Graph& g_;
  std::vector<std::pair<NodeId, NodeId>> committed_;
  std::vector<std::optional<GateDnf>> cond_;
  std::vector<std::optional<GateDnf>> need_;
  std::unordered_map<NodeId, NodeMask> faninCache_;
};

}  // namespace

int applySharedGating(PowerManagedDesign& design, const RunBudget* budget,
                      int* slackRejects) {
  SharedGatingPass pass(design, budget);
  const int gated = pass.run();
  if (slackRejects != nullptr) *slackRejects = pass.slackRejects();
  return gated;
}

int applySharedGatingReference(PowerManagedDesign& design) {
  SharedGatingPassReference pass(design);
  return pass.run();
}

}  // namespace pmsched
