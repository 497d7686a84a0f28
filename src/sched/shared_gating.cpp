#include "sched/shared_gating.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "sched/bdd.hpp"
#include "sched/condition.hpp"
#include "sched/probe_farm.hpp"
#include "sched/timeframe_oracle.hpp"
#include "support/fault_injector.hpp"
#include "support/run_budget.hpp"
#include "support/thread_pool.hpp"

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
//
// Parallel path (threadCount() > 1): candidates are processed in WAVES. The
// main thread evaluates the DNF part of a wave's candidates under the
// assumption that none of them is accepted (every memo write is logged),
// staging each candidate's oracle probe onto a ProbeFarm wave as its edges
// become known and ringing the pool ONCE per wave (the PR-5 batched
// handoff); verdicts are then consumed strictly in order. The
// assumption only breaks on an acceptance — which changes condOf() of the
// accepted node and thereby the needs of its producers (all LATER in the
// sweep, since consumers are processed before producers) — so the wave is
// cut at the winner: memo entries written by later candidates' evaluations
// are rolled back and the remainder re-enters the next wave against the
// updated state. A candidate's final decision is therefore always derived
// from exactly the committed decisions of its turn, which is what makes
// the pass bit-identical to the sequential sweep at any thread count (and
// to the retained from-scratch reference).
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

  /// Probeworthy candidates the oracle rejected for schedulability. Wave
  /// rejections are only counted when their verdict is consumed (candidates
  /// past a wave cut re-enter the next wave unconsumed), so the count is
  /// identical to the sequential sweep's at any thread count.
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
    // exactly what the per-turn filter would. Waves engage under
    // farmProbesWorthwhile's policy: PMSCHED_SPECULATE, else the graph
    // size against the calibrated probe/handoff crossover.
    const bool waves =
        threadCount() > 1 && cands.size() >= 8 && farmProbesWorthwhile(g_.size());
    const int gated = waves ? runWaves(cands) : runSequential(cands);
    // The oracle's committed fixed point equals the from-scratch frames of
    // the augmented graph; snapshot it before mutating.
    design_.frames = oracle_.frames();
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

  int runSequential(const std::vector<NodeId>& cands) {
    int gated = 0;
    for (const NodeId n : cands) {
      if (budgetStop()) {
        markDegraded();
        break;
      }
      if (tryGate(n)) ++gated;
    }
    return gated;
  }

  /// The DNF half of tryGate(): decide whether `n` is probeworthy and
  /// compute its tentative edges. Pure with respect to the oracle; memo
  /// writes go through the (logged) condOf/needOf below.
  struct Eval {
    bool probeworthy = false;
    Dnf need;
    std::vector<Edge> edges;
    std::size_t ticket = static_cast<std::size_t>(-1);
    std::size_t logEnd = 0;  ///< memoLog_ size after this evaluation
  };

  void evalCandidate(NodeId n, Eval& e) {
    if (g_.fanouts(n).empty()) return;
    const Dnf& need = needOf(n);
    if (eng_.isTrue(need) || need.isFalse()) return;
    const std::vector<NodeId> support = eng_.support(need);
    for (const NodeId sel : support) {
      if (sel == n) return;
      if (!isScheduled(g_.kind(sel))) continue;
      if (faninOf(sel).test(n)) return;
    }
    for (const NodeId sel : support)
      if (isScheduled(g_.kind(sel))) e.edges.emplace_back(sel, n);
    e.need = need;
    e.probeworthy = true;
  }

  /// Reset every memo entry written after log position `mark` (entries are
  /// only ever written when unset, so the undo is a reset).
  void rollbackTo(std::size_t mark) {
    while (memoLog_.size() > mark) {
      const auto [table, n] = memoLog_.back();
      memoLog_.pop_back();
      (table == 'c' ? cond_ : need_)[n].reset();
    }
  }

  int runWaves(const std::vector<NodeId>& cands) {
    ProbeFarm farm(g_, design_.steps, design_.latency, "shared-gating", budget_);
    const std::size_t wave = std::max<std::size_t>(2 * farm.lanes(), 8);
    int gated = 0;
    std::size_t idx = 0;
    std::vector<Eval> evals;
    while (idx < cands.size()) {
      if (budgetStop()) {
        // Stop between waves: everything committed so far stays, staged
        // probes of the abandoned wave are reaped by the farm destructor
        // (its lanes poll the same budget, so the drain is one
        // slice-quantum).
        markDegraded();
        break;
      }
      const std::size_t end = std::min(idx + wave, cands.size());
      evals.assign(end - idx, Eval{});
      memoLog_.clear();
      logging_ = true;
      // Sub-waves: publish every ~lanes staged probes instead of ringing
      // once at the end, so the lanes work on the early candidates' probes
      // WHILE the consumer is still evaluating the later candidates' DNFs.
      // Verdicts are still consumed strictly in j order below (and no
      // commit happens during staging, so every job's captured version is
      // unchanged) — the overlap moves wall-clock idle time, not results.
      const std::size_t subWave = std::max<std::size_t>(farm.lanes(), 4);
      std::size_t staged = 0;
      for (std::size_t j = idx; j < end; ++j) {
        Eval& e = evals[j - idx];
        evalCandidate(cands[j], e);
        e.logEnd = memoLog_.size();
        if (e.probeworthy && !e.edges.empty()) {
          e.ticket = farm.stage(e.edges);
          if (++staged >= subWave) {
            farm.ring();
            staged = 0;
          }
        }
      }
      logging_ = false;
      farm.ring();  // tail sub-wave (no-op when nothing is pending)

      std::size_t nextIdx = end;
      for (std::size_t j = idx; j < end; ++j) {
        Eval& e = evals[j - idx];
        if (!e.probeworthy) continue;  // rejected before probing
        const NodeId n = cands[j];
        bool ok;
        if (e.edges.empty()) {
          ok = true;  // no scheduled select: trivially feasible
        } else {
          const ProbeFarm::Result r = farm.await(e.ticket);
          if (r.error && r.version == farm.version()) std::rethrow_exception(r.error);
          if (r.ran && !r.error && r.version == farm.version()) {
            ok = r.feasible;
            if (ok) {
              oracle_.push(e.edges);
              if (!oracle_.feasible())
                throw SynthesisError("shared-gating: speculative verdict diverged");
              oracle_.commit();
              farm.commitBatch(oracle_);
            }
          } else {
            // Defensive (a wave is cut at the first acceptance, so awaited
            // results should never be stale): sequential re-validation.
            oracle_.push(e.edges, /*probe=*/true);
            ok = oracle_.feasible();
            if (ok) {
              oracle_.commit();
              farm.commitBatch(oracle_);
            } else {
              oracle_.pop();
            }
          }
        }
        if (!ok) {
          // A consumed rejection is final (later commits only tighten), so
          // it counts exactly like the sequential sweep's oracle reject.
          ++slackRejects_;
          continue;
        }

        // ACCEPT: roll back the assumption-tainted memo writes of the later
        // candidates in this wave BEFORE installing the new condition (the
        // rollback log may contain a speculative condOf(n) entry).
        fault::point("gating-commit");
        rollbackTo(e.logEnd);
        committed_.insert(committed_.end(), e.edges.begin(), e.edges.end());
        design_.sharedGating[n] = eng_.decode(e.need);
        cond_[n] = std::move(e.need);
        ++gated;
        nextIdx = j + 1;
        break;
      }
      idx = nextIdx;
    }
    return gated;
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
    if (logging_) memoLog_.emplace_back('c', n);
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
    if (logging_) memoLog_.emplace_back('n', n);
    return *need_[n];
  }

  bool tryGate(NodeId n) {
    // One evaluation path for both sweeps: the wave protocol is only
    // bit-identical to this sequential loop because the DNF half is
    // literally the same code (evalCandidate).
    Eval e;
    evalCandidate(n, e);
    if (!e.probeworthy) return false;

    if (budget_ != nullptr && !e.edges.empty()) budget_->chargeProbes();
    oracle_.push(e.edges, /*probe=*/true);
    if (!oracle_.feasible()) {
      oracle_.pop();
      ++slackRejects_;
      return false;
    }
    fault::point("gating-commit");
    oracle_.commit();

    committed_.insert(committed_.end(), e.edges.begin(), e.edges.end());
    design_.sharedGating[n] = eng_.decode(e.need);
    // condOf(n) would re-intern design_.sharedGating[n]; `e.need` is
    // already simplified, so the handle itself is that result.
    cond_[n] = std::move(e.need);
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
  /// Wave-evaluation memo write log for rollback (table tag, node).
  std::vector<std::pair<char, NodeId>> memoLog_;
  bool logging_ = false;
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
