#pragma once
// Incremental ASAP/ALAP time-frame oracle.
//
// The paper's transform (Fig. 3, steps 5-9) and its extensions all share the
// same inner loop: tentatively add a batch of control-precedence edges, ask
// "does every node still have ASAP <= ALAP within the step budget?", then
// commit or revert. computeTimeFrames() answers that from scratch — two
// O(V+E) sweeps per query. The oracle instead owns the frames and *repairs*
// them per batch, with undo:
//
//   push(edges)  tentatively add a batch; frames repaired incrementally
//   pop()        revert the innermost batch; frames restored exactly
//   commit()     keep the innermost batch (allowed at depth 1 only)
//
// Invariant: after every operation, the live ASAP values equal what
// computeTimeFrames(g, steps, <all live edges>, model) would compute from
// scratch. The frame recurrences have a unique fixed point on a DAG, so
// repairing only the nodes whose value actually changes reaches the same
// integers, and pop() restores the previous fixed point from an undo log
// instead of recomputing.
//
// Tightening only. Every repair starts from the fixed point of a subset of
// the live constraints and only adds constraints: push() adds edges and the
// lazy ALAP flush applies edges already pushed. ASAPs can therefore only
// rise and ALAPs only fall, and the repair is push-style label correcting:
// a popped node offers its value to each successor (for ASAP; predecessor
// for ALAP) through one recurrence edge, and a neighbour is enqueued only
// when the offer actually raises (lowers) it. The value a neighbour
// already holds is the maximum over all of its other inputs, so
// max(held, offer) is exactly what recomputing it from every input gives.
// pop() never repairs: it replays the undo log.
//
// Worklist order. The pending nodes sit in a two-level bitset over cached
// topological positions (one bit per node, one summary bit per 64-bit
// word), so membership is a bit and popMin()/popMax() return the smallest
// (largest) pending position — the order a min-heap (max-heap) of
// (topo position, id) pairs pops, since positions are unique. Forward
// repairs pop in topological order, so without edges against that order a
// popped node's value is final; batch edges may run against it (the source
// can sit later than the target), and the loop then merely revisits nodes.
// Values beyond a loose DAG bound mean a batch closed a cycle.
//
// Two structural shortcuts keep probe batches cheap; neither changes any
// observable value:
//
//  * Lazy ALAP. Feasibility is equivalent to "no scheduled node's finish
//    exceeds the budget": if asap[n] > alap[n] anywhere, following n's
//    binding consumer chain to its terminal node m (whose alap is the
//    budget cap steps - lat(m) + 1) accumulates the same latencies on both
//    sides, giving asap[m] + lat(m) - 1 > steps. The forward pass alone
//    therefore answers feasible(); the backward pass runs at commit() or
//    on the first ALAP read (frames()/firstInfeasible()), and probe
//    batches that are pushed, tested and popped never pay for it.
//  * Infeasible probes may abort. push(edges, /*probe=*/true) stops
//    repairing at the first over-budget node and poisons the batch:
//    feasible() is false, commit()/push() are refused, and pop() restores
//    the exact pre-push state from the undo log. Probe mode is for
//    the one caller that only branches on the feasibility of stacked
//    batches (the optimal-search DFS); the default mode repairs to the
//    fixed point so firstInfeasible() can name the same node the
//    reference would.
//
// The slack verdict. The transform's batches all leave one source (the
// select producer, towards the top nodes of a gated set); shared gating's
// all enter one target (the gated node, from every select in its
// condition's support). Both loops need only one answer per batch: commit
// it if the frames stay feasible, else leave the oracle as it was. For
// such a batch the committed frames already hold that answer:
//
//   tryCommit(edges)  commit when asap[s] + w(s,t) <= alap[t] for every
//                     edge (s,t), else reject without touching a frame
//
// Here w(a,b) is the frame recurrence's edge weight, lat[a] between two
// scheduled nodes. The lemma: the committed frames are the longest-path
// fixed point of a DAG, and a path can use at most one new edge. Using two,
// s1->t1 ~> s2->t2, means t1 reaches s2; with one source (s1 = s2) or one
// target (t1 = t2) that path returns to where it started, a cycle. A new
// edge (s,t) with excess e = asap[s] + w(s,t) - alap[t] > 0 therefore
// leaves t itself with ASAP > ALAP after the push, which is infeasible (see
// lazy ALAP above). With no positive excess, every path through a new edge
// keeps a non-negative slack, so the push is feasible. The verdict names
// no node: a report that wants the node push() + firstInfeasible() would
// name replays the batch (nameSlackRejects() in power_transform.hpp).
//
// Cycle check. closesCycle(edges) asks, edge by edge, whether the target
// already reaches the source over the live edges; for a one-source or
// one-target batch a cycle can use only one new edge (as above), so the
// answer is exact. It is also exact for a complete bipartite batch (every
// source to every target, as shared gating builds): a cycle through two new
// edges s1->t1 ~> s2->t2 means t1 reaches s2, so the batch edge (s2,t1)
// closes a cycle on its own. The walk prunes every node whose frames leave no room
// for a path to the source, so a query is O(1) when the frames rule the
// path out and a walk confined to the frame window otherwise. A walk
// stamps the nodes it has searched; a stamp means "does not reach this
// source", so each new source starts a new walk epoch. tryCommit() runs
// the same check before it rejects, and throws push()'s error on a cycle.
//
// The lemma needs one weight per edge. A scheduled zero-cycle kind breaks
// that (its edge into a transparent node weighs -1 for ASAP but 0 for
// ALAP), so slackExact() is false for such a graph and model, and
// tryCommit() falls back to push() and a feasibility test, then commits or
// pops. It also falls back at depth() > 0, on a committed state that is
// already infeasible, and on batches with neither one source nor one
// target: the verdict is exact in every case, only the cost differs. The
// frame pruning of closesCycle() holds under every model, since no ALAP
// edge weight is below its ASAP weight.
//
// Differential tests (tests/test_timeframe_oracle.cpp) assert frame
// equality against computeTimeFrames under randomized batch sequences (up
// to 512x16 graphs, with batch edges against the topo order and
// multi-cycle models), tryCommit() against push/feasible/pop — on random
// one-source and one-target batches, transform batches, long commit
// sequences, cycles and the zero-cycle fallback — and closesCycle()
// against a plain DFS.
//
// The oracle snapshots the graph's CSR views at construction; the graph
// must not be mutated while the oracle is alive.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/graph.hpp"
#include "sched/latency.hpp"
#include "sched/timeframe.hpp"

namespace pmsched {

class TimeFrameOracle {
 public:
  /// (before, after): `after` must be scheduled strictly after `before`.
  using Edge = std::pair<NodeId, NodeId>;

  /// Computes the initial frames (no extra edges). `errorContext`
  /// prefixes thrown messages so callers keep their historical diagnostics.
  TimeFrameOracle(const Graph& g, int steps, const LatencyModel& model = LatencyModel::unit(),
                  std::string errorContext = "TimeFrameOracle");

  // ---- tentative edge batches ---------------------------------------------

  /// Add a batch of tentative edges and repair the frames. Throws
  /// SynthesisError (and leaves the oracle unchanged) if the batch creates
  /// a cycle. An empty batch is valid and costs nothing. With `probe` the
  /// repair may stop at the first infeasibility (see header comment);
  /// a poisoned probe batch only supports pop().
  void push(std::span<const Edge> edges, bool probe = false);
  /// Revert the innermost batch, restoring the previous frames exactly.
  void pop();
  /// Make the innermost batch permanent. Only valid at depth() == 1 and on
  /// a feasible (non-poisoned) batch.
  void commit();
  /// Number of open (uncommitted) batches.
  [[nodiscard]] std::size_t depth() const { return depth_; }

  // ---- queries -------------------------------------------------------------

  [[nodiscard]] int asap(NodeId n) const { return asap_[n]; }

  /// O(1): true iff every scheduled node still fits the budget — equivalent
  /// to "every scheduled node has ASAP <= ALAP" at the frame fixed point.
  [[nodiscard]] bool feasible() const { return overEnd_ == 0; }
  /// First infeasible node in id order (diagnostics only). Like frames(),
  /// it flushes the lazy backward repair of every open batch (any depth)
  /// and throws on an aborted probe batch.
  [[nodiscard]] std::optional<NodeId> firstInfeasible();

  /// Materialize the current frames as a TimeFrames value (flushes ALAP).
  [[nodiscard]] TimeFrames frames();

  // ---- slack verdict (see header comment) -----------------------------------

  /// Outcome of tryCommit().
  enum class CommitVerdict { Committed, Rejected };

  /// True when the ASAP and ALAP recurrences share one edge weight (no
  /// scheduled node has a zero-cycle latency), which the fast path needs.
  [[nodiscard]] bool slackExact() const { return slackExact_; }
  /// Commit `edges` if they keep every frame feasible, else leave the
  /// oracle unchanged. Requires depth() == 0. Throws push()'s
  /// SynthesisError on a cycle. A one-source or one-target batch costs
  /// O(edges) plus push() when it fits and closesCycle() when it does not;
  /// any other batch costs one push().
  [[nodiscard]] CommitVerdict tryCommit(std::span<const Edge> edges);
  /// Would committing `edges` close a cycle? Exact for a batch whose edges
  /// share a source or a target, or that holds every (source, target) pair
  /// of its sources and targets (an edge (n, n) counts as a cycle).
  /// Requires depth() == 0; touches no frame.
  [[nodiscard]] bool closesCycle(std::span<const Edge> edges);

  /// Node frames the repairs have moved so far, once per node per worklist
  /// visit (undo restores not counted): the oracle's work counter for stage
  /// tracing.
  [[nodiscard]] std::uint64_t frameWrites() const { return frameWrites_; }

 private:
  struct Batch {
    std::vector<Edge> edges;
    std::vector<std::pair<NodeId, int>> asapUndo;  ///< (node, previous value)
    std::vector<std::pair<NodeId, int>> alapUndo;
    bool bwdDone = false;   ///< backward repair ran for this batch
    bool poisoned = false;  ///< probe stopped at the first infeasibility
  };

  enum class RepairResult { Ok, Cycle, Infeasible };

  /// Pending repair work: a set of topo positions in a two-level bitset.
  /// popMin()/popMax() return the smallest/largest pending position.
  class TopoWorklist {
   public:
    void resize(std::size_t positions);
    [[nodiscard]] bool empty() const { return size_ == 0; }
    /// False when `pos` was already pending.
    bool insert(std::uint32_t pos);
    std::uint32_t popMin();
    std::uint32_t popMax();
    void clear();

   private:
    void take(std::size_t word, std::uint32_t bit);
    std::vector<std::uint64_t> words_;
    std::vector<std::uint64_t> summary_;  ///< bit w set iff words_[w] != 0
    std::size_t size_ = 0;
  };

  /// ASAP / ALAP of `v` from its inputs / outputs.
  [[nodiscard]] int asapFromInputs(NodeId v) const;
  [[nodiscard]] int alapFromOutputs(NodeId v) const;
  /// Step after which a scheduled `v` (or the value of a transparent `v`)
  /// is ready, at its current ASAP.
  [[nodiscard]] int readyAfter(NodeId v) const {
    return sched_[v] ? asap_[v] + lat_[v] - 1 : asap_[v];
  }
  /// Latest ALAP of producer `v` that consumer `s` (at its current ALAP)
  /// allows.
  [[nodiscard]] int latestBefore(NodeId v, NodeId s) const {
    if (sched_[s]) return sched_[v] ? alap_[s] - lat_[v] : alap_[s] - 1;
    return alap_[s] - (lat_[v] > 0 ? lat_[v] - 1 : 0);
  }
  void setAsap(NodeId v, int value);
  /// Offer `value` as a lower bound on asap[s]; enqueue s if it rises.
  RepairResult raiseAsap(NodeId s, int value, Batch& undo, bool abortOnInfeasible);
  /// Offer `value` as an upper bound on alap[p]; enqueue p if it falls.
  void lowerAlap(NodeId p, int value, Batch& undo);
  /// Drain the worklist of raised nodes; the result of the first offer
  /// that was not Ok ends it early.
  RepairResult repairForward(Batch& undo, bool abortOnInfeasible);
  void repairBackward(Batch& undo);
  /// Run the deferred backward repair of the innermost batch, if any.
  void ensureAlap();
  /// Restore frames from a batch's undo log and detach its edges.
  void undoBatch(Batch& batch);

  /// Frame recurrence edge weight a -> b (ASAP form; equal to the ALAP
  /// form when slackExact_).
  [[nodiscard]] int weight(NodeId a, NodeId b) const {
    return (sched_[a] ? lat_[a] - 1 : 0) + (sched_[b] ? 1 : 0);
  }
  /// How far a new edge s -> t would push t's ASAP past its ALAP.
  [[nodiscard]] int excess(NodeId s, NodeId t) const { return asap_[s] + weight(s, t) - alap_[t]; }
  /// The committed frames alone decide tryCommit(edges) exactly.
  [[nodiscard]] bool slackFastPath(std::span<const Edge> edges) const;
  /// Does `from` reach `to` over the live edges? Prunes nodes whose frames
  /// leave no room for a path to `to`. Nodes stamped in the current walk
  /// epoch count as already searched.
  [[nodiscard]] bool reaches(NodeId from, NodeId to);
  /// Fresh walk epoch: every node reads as unvisited.
  void beginWalk();

  const Graph& g_;
  const int steps_;
  const LatencyModel model_;
  const std::string ctx_;
  const CsrAdjacency& fanoutCsr_;
  const CsrAdjacency& ctrlSuccCsr_;
  const CsrAdjacency& ctrlPredCsr_;

  std::vector<char> sched_;
  std::vector<int> lat_;                 ///< latency (0 for transparent nodes)
  std::vector<int> latestStart_;         ///< steps - lat + 1 (scheduled), else steps
  std::span<const NodeId> order_;        ///< the cached topo order
  std::vector<std::uint32_t> topoPos_;   ///< position in order_
  int bound_ = 0;                        ///< asap values beyond this imply a cycle

  std::vector<int> asap_;
  std::vector<int> alap_;
  int overEnd_ = 0;                      ///< scheduled nodes with asap > latestStart
  std::uint64_t frameWrites_ = 0;

  std::vector<std::vector<NodeId>> xSucc_;  ///< live extra edges (all batches)
  std::vector<std::vector<NodeId>> xPred_;
  /// Pooled batch records: slots [0, depth_) are open; slots keep their
  /// vector capacity across pushes (the DFS consumers push/pop thousands of
  /// times, so per-push allocation is off the hot path).
  std::vector<Batch> batchPool_;
  std::size_t depth_ = 0;

  bool slackExact_ = true;               ///< one edge weight for both frames

  TopoWorklist queue_;  ///< empty between repairs
  // Cycle-check scratch: visited where walkStamp_ == walkEpoch_.
  std::vector<std::uint32_t> walkStamp_;
  std::uint32_t walkEpoch_ = 0;
  std::vector<NodeId> walkStack_;
};

}  // namespace pmsched
