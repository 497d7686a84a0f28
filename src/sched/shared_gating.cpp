#include "sched/shared_gating.hpp"

#include <optional>

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
// conjoin/disjoin below runs directly on term ids. The test suite keeps the
// original decode/encode-per-call flow with from-scratch frames as its
// reference (tests/shared_gating_reference.hpp) and asserts bit-identical
// gating decisions and slack-reject counts.
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
    tops_.resize(g_.size());
    for (const MuxPmInfo& info : design.muxes) {
      if (!info.managed) continue;
      std::vector<NodeId>& tops = tops_[info.mux];
      tops = info.topTrue;
      tops.insert(tops.end(), info.topFalse.begin(), info.topFalse.end());
    }
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
    // resolveActivationConditions ANDs n's condition into every node of a
    // managed mux's gated cones, and each of those nodes comes after a top
    // of the cones, so every select must precede the tops as well as n.
    std::vector<Edge> edges;
    for (const NodeId sel : eng_.support(need)) {
      if (!isScheduled(g_.kind(sel))) continue;  // PI-driven select: free
      edges.emplace_back(sel, n);
      for (const NodeId t : tops_[n]) edges.emplace_back(sel, t);
    }
    // n cannot wait for a select it feeds (sel == n included): a structural
    // reject, not a slack one. The batch is every select times {n} plus the
    // tops, which closesCycle() answers exactly.
    if (oracle_.closesCycle(edges)) return false;

    if (budget_ != nullptr && !edges.empty()) budget_->chargeProbes();
    // Even an empty batch goes through the oracle: it rejects when the
    // committed frames are already infeasible.
    if (oracle_.tryCommit(edges) == TimeFrameOracle::CommitVerdict::Rejected) {
      ++slackRejects_;
      return false;
    }
    fault::point("gating-commit");

    committed_.insert(committed_.end(), edges.begin(), edges.end());
    design_.sharedGating[n] = eng_.decode(need);
    // condOf(n) would re-intern design_.sharedGating[n]; `need` is
    // already simplified, so the handle itself is that result.
    cond_[n] = std::move(need);
    return true;
  }

  PowerManagedDesign& design_;
  Graph& g_;
  DnfEngine eng_;
  TimeFrameOracle oracle_;
  const RunBudget* budget_ = nullptr;
  std::vector<std::pair<NodeId, NodeId>> committed_;
  std::vector<std::optional<Dnf>> cond_;
  std::vector<std::optional<Dnf>> need_;
  /// Per managed mux: the tops of its gated cones (empty for other nodes).
  std::vector<std::vector<NodeId>> tops_;
  int slackRejects_ = 0;
  /// Pipeline callers interleave this pass with code holding refs into the
  /// thread's DNF→probability manager (controller condition-class keys,
  /// mapper decode-memo keys). Pin it for the pass's lifetime so any
  /// dnfProbability call made while the sweep runs cannot trim the manager
  /// and invalidate those refs mid-pipeline (see trimDnfProbabilityManager).
  BddPin probabilityPin_{dnfProbabilityManager()};
};

}  // namespace

int applySharedGating(PowerManagedDesign& design, const RunBudget* budget,
                      int* slackRejects) {
  SharedGatingPass pass(design, budget);
  const int gated = pass.run();
  if (slackRejects != nullptr) *slackRejects = pass.slackRejects();
  return gated;
}

}  // namespace pmsched
