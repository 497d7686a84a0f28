#include "sched/power_transform.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "cdfg/analysis.hpp"
#include "sched/timeframe_oracle.hpp"
#include "support/run_budget.hpp"

namespace pmsched {

namespace {

/// Relative power weights used only to order muxes for the BySavings
/// strategy (the paper's §V weights; the real power model lives in
/// src/power and is configurable).
double orderingWeight(ResourceClass rc) {
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

double potentialSavings(const Graph& g, const GatedSets& sets) {
  double s = 0;
  for (const NodeId n : sets.gatedTrue)
    if (isScheduled(g.kind(n))) s += orderingWeight(resourceClassOf(g.kind(n))) * 0.5;
  for (const NodeId n : sets.gatedFalse)
    if (isScheduled(g.kind(n))) s += orderingWeight(resourceClassOf(g.kind(n))) * 0.5;
  return s;
}

/// Processing order of the mux list under a strategy.
std::vector<NodeId> orderMuxes(const Graph& g, MuxOrdering ordering) {
  std::vector<NodeId> muxes = g.nodesOfKind(OpKind::Mux);
  switch (ordering) {
    case MuxOrdering::OutputFirst: {
      const std::vector<int> dist = distanceToOutput(g);
      std::stable_sort(muxes.begin(), muxes.end(), [&](NodeId a, NodeId b) {
        if (dist[a] != dist[b]) return dist[a] < dist[b];
        return a < b;
      });
      break;
    }
    case MuxOrdering::InputFirst: {
      const std::vector<int> dist = distanceToOutput(g);
      std::stable_sort(muxes.begin(), muxes.end(), [&](NodeId a, NodeId b) {
        if (dist[a] != dist[b]) return dist[a] > dist[b];
        return a < b;
      });
      break;
    }
    case MuxOrdering::BySavings: {
      std::vector<double> savings(g.size(), 0);
      GatedSetFinder finder(g);
      for (const NodeId m : muxes) savings[m] = potentialSavings(g, finder.find(m));
      std::stable_sort(muxes.begin(), muxes.end(), [&](NodeId a, NodeId b) {
        if (savings[a] != savings[b]) return savings[a] > savings[b];
        return a < b;
      });
      break;
    }
  }
  return muxes;
}

std::size_t termIdsHash(const std::vector<DnfEngine::TermId>& terms) {
  std::size_t h = terms.size();
  for (const DnfEngine::TermId t : terms) h = h * 0x9e3779b97f4a7c15ULL + t;
  return h;
}

}  // namespace

NodeId traceSelectProducer(const Graph& g, NodeId mux) {
  if (g.kind(mux) != OpKind::Mux) throw SynthesisError("traceSelectProducer: not a mux");
  NodeId n = g.fanins(mux)[0];
  while (g.kind(n) == OpKind::Wire) n = g.fanins(n)[0];
  return n;
}

bool GatedSets::gatesWork(const Graph& g) const {
  const auto scheduled = [&](NodeId n) { return isScheduled(g.kind(n)); };
  return std::any_of(gatedTrue.begin(), gatedTrue.end(), scheduled) ||
         std::any_of(gatedFalse.begin(), gatedFalse.end(), scheduled);
}

GatedSetFinder::GatedSetFinder(const Graph& g)
    : g_(g),
      fanouts_(g.fanoutCsr()),
      seen_(g.size(), 0),
      delivered_(g.size(), 0),
      reach_(g.size(), 0) {}

std::uint32_t GatedSetFinder::nextEpoch() {
  if (++epoch_ == 0) {  // wrapped: clear the stale stamps once
    std::fill(seen_.begin(), seen_.end(), 0);
    std::fill(reach_.begin(), reach_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

std::vector<NodeId> GatedSetFinder::side(NodeId mux, std::size_t slot) {
  const std::uint32_t epoch = nextEpoch();
  std::vector<NodeId> members;  // also the worklist: members.size() grows
  auto deliver = [&](NodeId n) {
    if (seen_[n] != epoch) {
      seen_[n] = epoch;
      delivered_[n] = 0;
    }
    if (++delivered_[n] != fanouts_.row(n).size()) return;
    const OpKind k = g_.kind(n);
    if (k != OpKind::Input && k != OpKind::Const && k != OpKind::Output) members.push_back(n);
  };
  deliver(g_.fanins(mux)[slot]);
  for (std::size_t i = 0; i < members.size(); ++i)
    for (const NodeId p : g_.fanins(members[i])) deliver(p);
  std::sort(members.begin(), members.end());
  return members;
}

std::vector<NodeId> GatedSetFinder::tops(const std::vector<NodeId>& set) {
  if (set.empty()) return {};
  // reach_[n] == epoch: a scheduled member is backward-reachable from n
  // (inclusive) through members. Only members are ever stamped, and data
  // operands always have smaller ids than their consumers, so one
  // ascending pass over the set settles every flag.
  const std::uint32_t epoch = nextEpoch();
  auto reached = [&](NodeId p) { return reach_[p] == epoch; };
  std::vector<NodeId> result;
  for (const NodeId n : set) {
    const std::span<const NodeId> ops = g_.fanins(n);
    const bool hasAncestor = std::any_of(ops.begin(), ops.end(), reached);
    if (isScheduled(g_.kind(n))) {
      reach_[n] = epoch;
      if (!hasAncestor) result.push_back(n);
    } else if (hasAncestor) {
      reach_[n] = epoch;
    }
  }
  return result;
}

GatedSets GatedSetFinder::find(NodeId mux) {
  if (g_.kind(mux) != OpKind::Mux) throw SynthesisError("computeGatedSets: not a mux");
  GatedSets sets;
  sets.gatedTrue = side(mux, 1);
  sets.gatedFalse = side(mux, 2);
  sets.topTrue = tops(sets.gatedTrue);
  sets.topFalse = tops(sets.gatedFalse);
  return sets;
}

GatedSets computeGatedSets(const Graph& g, NodeId mux) { return GatedSetFinder(g).find(mux); }

PowerManagedDesign unmanagedDesign(const Graph& g, int steps) {
  PowerManagedDesign design;
  design.graph = g.clone();
  design.steps = steps;
  design.gates.assign(g.size(), {});
  design.sharedGating.assign(g.size(), {});
  design.frames = computeTimeFrames(design.graph, steps);
  return design;
}

ConditionTable resolveActivationConditions(const PowerManagedDesign& design) {
  const Graph& g = design.graph;
  ConditionTable table;
  table.index.assign(g.size(), 0);

  // Conditions are composed on interned handles in an engine of their own:
  // the conjoin and simplify steps andDnf and simplifyDnf take, without a
  // decode and re-encode between them. Equal content means equal handles,
  // so the exact dedup compares handles (open addressing over entry ids,
  // at most half full), and each distinct entry is decoded once at the end.
  // Entry 0 is TRUE, so a gated node whose DNF simplifies to TRUE shares it.
  DnfEngine eng;
  std::vector<DnfEngine::Dnf> handles{eng.trueDnf()};
  constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  std::vector<std::uint32_t> slots(64, kEmpty);  // power-of-two size
  const auto slotOf = [&](const DnfEngine::Dnf& h) {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = termIdsHash(h.terms) & mask;
    while (slots[i] != kEmpty && handles[slots[i]] != h) i = (i + 1) & mask;
    return i;
  };
  slots[slotOf(handles[0])] = 0;
  // The entry of `h`; a fresh one takes over h's storage.
  const auto intern = [&](DnfEngine::Dnf& h) {
    if ((handles.size() + 1) * 2 > slots.size()) {
      slots.assign(slots.size() * 2, kEmpty);
      for (std::uint32_t e = 0; e < handles.size(); ++e) slots[slotOf(handles[e])] = e;
    }
    std::uint32_t& slot = slots[slotOf(h)];
    if (slot == kEmpty) {
      slot = static_cast<std::uint32_t>(handles.size());
      handles.push_back(std::exchange(h, {}));
    }
    return slot;
  };
  DnfEngine::Dnf resolved;

  // A node is gated only by muxes downstream of it, so resolving in reverse
  // topological order guarantees every gating mux is finished first.
  GateTerm lit{GateLiteral{}};
  DnfEngine::Dnf withLit;
  const std::span<const NodeId> order = g.topoOrderView();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId n = *it;
    if (!design.sharedGating[n].empty()) {
      resolved = eng.intern(design.sharedGating[n]);
    } else if (!design.gates[n].empty()) {
      // TRUE AND lit AND cond[mux], gate by gate.
      std::span<const DnfEngine::TermId> acc = handles[0].terms;
      for (const NodeGate& gate : design.gates[n]) {
        lit[0] = GateLiteral{traceSelectProducer(g, gate.mux), gate.side == MuxSide::True};
        const DnfEngine::TermId litTerm = eng.internTerm(lit);
        eng.conjoinInto(acc, std::span<const DnfEngine::TermId>(&litTerm, 1), withLit);
        eng.conjoinInto(withLit.terms, handles[table.index[gate.mux]].terms, resolved);
        acc = resolved.terms;
      }
    } else {
      continue;
    }
    table.index[n] = intern(resolved);
  }

  table.dnfs.reserve(handles.size());
  for (const DnfEngine::Dnf& h : handles) table.dnfs.push_back(eng.decode(h));
  return table;
}

int PowerManagedDesign::managedCount() const {
  int count = 0;
  for (const MuxPmInfo& info : muxes)
    if (info.managed && info.hasGatedWork()) ++count;
  return count;
}

int PowerManagedDesign::sharedGatedCount() const {
  int count = 0;
  for (const GateDnf& dnf : sharedGating)
    if (!dnf.empty()) ++count;
  return count;
}

namespace {

constexpr const char* kBudgetReason = "not attempted: run budget exhausted";
/// A slack reject as the greedy loop records it; nameSlackRejects() names
/// the node.
constexpr std::string_view kSlackReason = "insufficient slack";

std::string namedSlackReason(const Graph& g, NodeId bad) {
  return std::string(kSlackReason) + ": node '" + g.node(bad).name + "' would need ASAP > ALAP";
}

/// Mark a transform design degraded (once) and mirror it into the budget's
/// event log so the CLI can report which stage stopped early.
void markTransformDegraded(PowerManagedDesign& design, const RunBudget* budget) {
  if (design.degraded) return;
  design.degraded = true;
  const BudgetKind kind =
      budget->exhaustedWhy().value_or(BudgetKind::Deadline);
  design.degradeReason = std::string("power-management transform stopped early (") +
                         budgetKindName(kind) + "); remaining muxes left unmanaged";
  budget->noteDegraded("power-transform", kind,
                       "remaining muxes left unmanaged; design stays valid");
}

/// The greedy loop: offer power management to `candidates` in order, keeping
/// each mux whose control edges leave the frames feasible. The per-mux test
/// is the TimeFrameOracle's verdict on its committed frames: an accept
/// commits the edges, a reject records the unnamed kSlackReason.
PowerManagedDesign runTransform(const Graph& g, int steps, const std::vector<NodeId>& candidates,
                                const LatencyModel& model, const RunBudget* budget = nullptr) {
  PowerManagedDesign design;
  design.graph = g.clone();
  design.steps = steps;
  design.latency = model;
  design.gates.assign(g.size(), {});
  design.sharedGating.assign(g.size(), {});

  Graph& work = design.graph;
  std::vector<std::pair<NodeId, NodeId>> committed;
  TimeFrameOracle oracle(work, steps, model, "power-transform");
  // Edges are only materialized after the loop, so the finder's view of
  // the data edges stays valid for the whole sweep.
  GatedSetFinder finder(work);

  for (const NodeId m : candidates) {
    MuxPmInfo info;
    info.mux = m;

    if (budget != nullptr && budget->exhausted()) {
      // Degrade: stop offering gating. Everything committed so far stays;
      // the design (and its final frames) remains exactly as if the
      // candidate list had ended here, so it is still schedulable.
      info.reason = kBudgetReason;
      markTransformDegraded(design, budget);
      design.muxes.push_back(std::move(info));
      continue;
    }

    GatedSets sets = finder.find(m);
    const bool gatesWork = sets.gatesWork(work);
    info.gatedTrue = std::move(sets.gatedTrue);
    info.gatedFalse = std::move(sets.gatedFalse);
    info.topTrue = std::move(sets.topTrue);
    info.topFalse = std::move(sets.topFalse);

    if (!gatesWork) {
      info.reason = "no operations are exclusive to one data input";
      design.muxes.push_back(std::move(info));
      continue;
    }

    const NodeId ctrl = traceSelectProducer(work, m);
    std::vector<std::pair<NodeId, NodeId>> newEdges;
    if (isScheduled(work.kind(ctrl))) {
      info.lastControl = ctrl;
      for (const NodeId t : info.topTrue) newEdges.emplace_back(ctrl, t);
      for (const NodeId t : info.topFalse) newEdges.emplace_back(ctrl, t);
    }
    // A select driven directly by an input or constant needs no control
    // step, so gating it is always feasible (lastControl stays invalid).

    if (budget != nullptr && !newEdges.empty()) budget->chargeProbes();
    // A reject leaves the frames untouched.
    if (oracle.tryCommit(newEdges) == TimeFrameOracle::CommitVerdict::Rejected) {
      info.reason = kSlackReason;
      design.muxes.push_back(std::move(info));
      continue;
    }

    committed.insert(committed.end(), newEdges.begin(), newEdges.end());  // commit (steps 8)
    info.managed = true;
    for (const NodeId n : info.gatedTrue) design.gates[n].push_back({m, MuxSide::True});
    for (const NodeId n : info.gatedFalse) design.gates[n].push_back({m, MuxSide::False});
    design.muxes.push_back(std::move(info));
  }

  // Final frames before materializing: the oracle's committed fixed point
  // equals computeTimeFrames over the augmented graph.
  design.frames = oracle.frames();
  design.oracleFrameWrites = oracle.frameWrites();

  // Step 10: materialize the committed precedence as control edges.
  for (const auto& [before, after] : committed) work.addControlEdge(before, after);
  return design;
}

}  // namespace

PowerManagedDesign applyPowerManagement(const Graph& g, int steps, MuxOrdering ordering,
                                        const LatencyModel& model, const RunBudget* budget) {
  g.validate();
  return runTransform(g, steps, orderMuxes(g, ordering), model, budget);
}

void nameSlackRejects(const Graph& input, PowerManagedDesign& design) {
  // Replaying the managed muxes in order rebuilds the committed frames each
  // reject was judged on; push + firstInfeasible + pop is the reference
  // semantics of the name.
  TimeFrameOracle oracle(input, design.steps, design.latency, "power-transform");
  std::vector<TimeFrameOracle::Edge> edges;
  for (MuxPmInfo& info : design.muxes) {
    const bool slackReject = info.reason == kSlackReason;
    if (!info.managed && !slackReject) continue;
    edges.clear();
    if (info.lastControl != kInvalidNode) {
      for (const NodeId t : info.topTrue) edges.emplace_back(info.lastControl, t);
      for (const NodeId t : info.topFalse) edges.emplace_back(info.lastControl, t);
    }
    oracle.push(edges);
    if (!slackReject) {
      oracle.commit();
      continue;
    }
    const std::optional<NodeId> bad = oracle.firstInfeasible();
    oracle.pop();
    if (!bad)
      throw SynthesisError("nameSlackRejects: mux '" + input.node(info.mux).name +
                           "' fits the replayed frames");
    info.reason = namedSlackReason(input, *bad);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Exact search (applyPowerManagementOptimal).
//
// A branch-and-bound DFS over include/exclude decisions on one oracle:
// push the mux's edges on descend, pop on backtrack.
//
// The infeasibility memo (ROADMAP open item): a probe that fails with at
// most one other mux chosen is a monotone fact — (i) alone infeasible, or
// (i, j) jointly infeasible — valid in every superset context, so sibling
// branches skip the doomed probe entirely.
// ---------------------------------------------------------------------------

class InfeasMemo {
 public:
  explicit InfeasMemo(std::size_t count) : words_((count + 63) / 64), bits_(count * words_, 0) {}

  /// Row i, bit i: mux i alone infeasible. Row i, bit j: pair (i, j)
  /// jointly infeasible.
  [[nodiscard]] bool blocked(std::size_t i, std::span<const std::uint64_t> chosenMask) const {
    const std::uint64_t* row = bits_.data() + i * words_;
    if (row[i / 64] & (std::uint64_t{1} << (i % 64))) return true;
    for (std::size_t w = 0; w < words_; ++w)
      if (row[w] & chosenMask[w]) return true;
    return false;
  }

  void learnSelf(std::size_t i) { setBit(i, i); }
  void learnPair(std::size_t i, std::size_t j) {
    setBit(i, j);
    setBit(j, i);
  }

 private:
  void setBit(std::size_t row, std::size_t bit) {
    bits_[row * words_ + bit / 64] |= std::uint64_t{1} << (bit % 64);
  }

  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// DFS working state over the exact window: the chosen set as both a list
/// (for pair learning) and a bitmask (for memo checks).
struct ChosenSet {
  std::vector<std::size_t> list;
  std::vector<std::uint64_t> mask;

  explicit ChosenSet(std::size_t count) : mask((count + 63) / 64, 0) {}
  void add(std::size_t i) {
    list.push_back(i);
    mask[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  void remove(std::size_t i) {
    list.pop_back();
    mask[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
};

}  // namespace

PowerManagedDesign applyPowerManagementOptimal(const Graph& g, int steps, std::size_t maxMuxes,
                                               const RunBudget* budget) {
  g.validate();
  // Set once the search stops on the budget; the chosen subset at
  // that point is the best COMPLETE assignment found so far (possibly
  // empty), which is always jointly feasible — the final materialization
  // below turns it into a valid, differentially-checkable design.
  bool stopped = false;

  // Candidates: muxes with gated work, most promising first. The gated sets
  // feed both the savings estimate and the control edges, so compute them
  // once per mux.
  std::vector<NodeId> candidates;
  std::vector<double> savings(g.size(), 0);
  std::vector<std::vector<std::pair<NodeId, NodeId>>> muxEdges;
  GatedSetFinder finder(g);
  for (const NodeId m : g.nodesOfKind(OpKind::Mux)) {
    const GatedSets sets = finder.find(m);
    if (!sets.gatesWork(g)) continue;
    savings[m] = potentialSavings(g, sets);
    candidates.push_back(m);
    std::vector<std::pair<NodeId, NodeId>> edges;
    const NodeId ctrl = traceSelectProducer(g, m);
    if (isScheduled(g.kind(ctrl))) {  // else always feasible, no edges
      for (const NodeId t : sets.topTrue) edges.emplace_back(ctrl, t);
      for (const NodeId t : sets.topFalse) edges.emplace_back(ctrl, t);
    }
    muxEdges.push_back(std::move(edges));
  }
  {
    std::vector<std::size_t> perm(candidates.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::stable_sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      return savings[candidates[a]] > savings[candidates[b]];
    });
    std::vector<NodeId> sortedCandidates(candidates.size());
    std::vector<std::vector<std::pair<NodeId, NodeId>>> sortedEdges(candidates.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
      sortedCandidates[i] = candidates[perm[i]];
      sortedEdges[i] = std::move(muxEdges[perm[i]]);
    }
    candidates = std::move(sortedCandidates);
    muxEdges = std::move(sortedEdges);
  }

  // Exact search over the head of the candidate list; anything beyond
  // maxMuxes is handled greedily afterwards (documented in the header).
  const std::size_t exactCount = std::min(candidates.size(), maxMuxes);

  TimeFrameOracle oracle(g, steps, LatencyModel::unit(), "power-transform");

  std::vector<bool> best(candidates.size(), false);
  double bestValue = -1;

  // Suffix sums of savings for pruning.
  std::vector<double> suffix(exactCount + 1, 0);
  for (std::size_t i = exactCount; i-- > 0;)
    suffix[i] = suffix[i + 1] + savings[candidates[i]];

  // Each node of the search tree costs one incremental repair; the memo
  // skips probes whose failure is already a recorded fact.
  InfeasMemo memo(exactCount);
  ChosenSet chosenSet(exactCount);
  std::vector<bool> current(candidates.size(), false);
  auto dfs = [&](auto&& self, std::size_t i, double value) -> void {
    if (budget != nullptr && budget->exhausted()) {
      stopped = true;
      return;  // best-so-far stands
    }
    if (value + suffix[i] <= bestValue) return;
    if (i == exactCount) {
      if (value > bestValue) {
        bestValue = value;
        best = current;
      }
      return;
    }
    if (!memo.blocked(i, chosenSet.mask)) {
      if (budget != nullptr) budget->chargeProbes();
      oracle.push(muxEdges[i], /*probe=*/true);
      if (oracle.feasible()) {
        current[i] = true;
        chosenSet.add(i);
        self(self, i + 1, value + savings[candidates[i]]);
        chosenSet.remove(i);
        current[i] = false;
      } else {
        if (chosenSet.list.empty()) memo.learnSelf(i);
        else if (chosenSet.list.size() == 1) memo.learnPair(i, chosenSet.list[0]);
      }
      oracle.pop();
    }
    self(self, i + 1, value);
  };
  dfs(dfs, 0, 0);

  // Greedy tail beyond the exact window: commit the chosen window on the
  // main oracle, then offer the remaining candidates in order.
  for (std::size_t i = 0; i < exactCount; ++i)
    if (best[i] && !muxEdges[i].empty()) {
      oracle.push(muxEdges[i]);
      oracle.commit();
    }
  for (std::size_t i = exactCount; i < candidates.size(); ++i) {
    if (budget != nullptr && budget->exhausted()) {
      stopped = true;
      break;  // remaining tail muxes stay unmanaged
    }
    if (budget != nullptr) budget->chargeProbes();
    // One-source batches at depth 0: the committed frames decide.
    if (oracle.tryCommit(muxEdges[i]) == TimeFrameOracle::CommitVerdict::Committed)
      best[i] = true;
  }

  std::vector<NodeId> chosen;
  for (std::size_t i = 0; i < candidates.size(); ++i)
    if (best[i]) chosen.push_back(candidates[i]);
  // The chosen subset is jointly feasible: replaying it is pure
  // materialization. The replay runs WITHOUT the budget — the committed
  // decisions must be materialized completely for the design to be
  // consistent.
  PowerManagedDesign design = runTransform(g, steps, chosen, LatencyModel::unit());
  design.oracleFrameWrites += oracle.frameWrites();
  if (stopped) {
    design.degraded = true;
    const BudgetKind kind = budget->exhaustedWhy().value_or(BudgetKind::Deadline);
    design.degradeReason = std::string("exact search stopped early (") + budgetKindName(kind) +
                           "); result is the best subset found so far";
    budget->noteDegraded("optimal-search", kind,
                         "best-so-far subset kept; design stays valid");
  }
  return design;
}

}  // namespace pmsched
