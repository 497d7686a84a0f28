#pragma once
// The paper's contribution: power-management-aware scheduling (Fig. 3).
//
// For every multiplexor the transform identifies the operations that are
// needed only when the mux selects one particular side (the "gated sets"),
// checks that the select-producing operation can be scheduled before all of
// them within the step budget, and — if so — inserts control precedence
// edges so the downstream scheduler orders control computation first. At
// run time the controller then loads the input latches of a gated unit only
// when the select value actually calls for its result.
//
// Faithful points of the implementation, matching the paper's text:
//  * muxes are processed one at a time, closest-to-the-outputs first (§III);
//  * a node that lies in the fanin cones of BOTH data inputs is never gated;
//  * a node with any data fanout escaping the gated region is never gated
//    (a fixed point: GatedSetFinder admits a node only once every one of
//    its fanouts is inside the region);
//  * ASAP/ALAP tightening is tentative per mux: committed when every node
//    keeps ASAP <= ALAP, reverted otherwise (steps 4-8 of Fig. 3);
//  * control edges run from the last control-fanin node to the top nodes of
//    the gated cones (step 10); scheduling is delegated to the ordinary
//    resource-minimizing scheduler (step 11).

#include <cstdint>
#include <string>
#include <vector>

#include "cdfg/graph.hpp"
#include "sched/condition.hpp"
#include "sched/timeframe.hpp"

namespace pmsched {

class RunBudget;

/// Order in which muxes are offered power management (§III default is
/// OutputFirst; the alternatives implement the §IV-A reordering study).
enum class MuxOrdering {
  OutputFirst,  ///< paper default: closest to the primary outputs first
  InputFirst,   ///< reverse order (ablation)
  BySavings,    ///< largest potential gated power first (§IV-A greedy)
};

/// Per-mux outcome of the transform.
struct MuxPmInfo {
  NodeId mux = kInvalidNode;
  bool managed = false;
  /// Why not managed (empty when managed). A slack reject reads
  /// "insufficient slack" until nameSlackRejects() names its node.
  std::string reason;

  /// Select-signal producer (traced through wires); kInvalidNode when the
  /// select comes directly from an input/constant (control needs no step).
  NodeId lastControl = kInvalidNode;

  std::vector<NodeId> gatedTrue;   ///< nodes needed only when select is true
  std::vector<NodeId> gatedFalse;  ///< nodes needed only when select is false
  std::vector<NodeId> topTrue;     ///< control-edge targets, true side
  std::vector<NodeId> topFalse;    ///< control-edge targets, false side

  [[nodiscard]] bool hasGatedWork() const { return !gatedTrue.empty() || !gatedFalse.empty(); }
};

/// One gating applied to a node: "needed only when `mux` selects `side`".
struct NodeGate {
  NodeId mux = kInvalidNode;
  MuxSide side = MuxSide::False;
};

/// Result of the transform: the augmented graph plus everything the
/// activation analysis and the controller generator need.
struct PowerManagedDesign {
  Graph graph;  ///< clone of the input with control edges inserted
  int steps = 0;
  LatencyModel latency = LatencyModel::unit();  ///< model used for feasibility
  std::vector<MuxPmInfo> muxes;              ///< in processing order
  std::vector<std::vector<NodeGate>> gates;  ///< per node: gatings applied
  TimeFrames frames;                         ///< final committed frames

  /// Extension (shared gating): per node, a fully-resolved DNF activation
  /// condition installed by applySharedGating(); empty = not shared-gated.
  /// Nodes with a shared condition have empty `gates`.
  std::vector<GateDnf> sharedGating;

  /// True when a RunBudget ran out before the transform finished: the
  /// design is still valid and differentially checkable, but muxes past
  /// the stopping point were left unmanaged (their `reason` says so) —
  /// see docs/ROBUSTNESS.md for the per-stage contract.
  bool degraded = false;
  std::string degradeReason;  ///< empty unless degraded

  /// Work counter, not part of the design: time-frame oracle values the
  /// transform and shared gating changed (TimeFrameOracle::frameWrites()).
  std::uint64_t oracleFrameWrites = 0;

  /// Muxes that were selected AND gate at least one operation — the paper's
  /// Table II "P.Man. Muxs" column.
  [[nodiscard]] int managedCount() const;
  /// Nodes gated by the shared extension.
  [[nodiscard]] int sharedGatedCount() const;
};

/// A no-op design wrapper: same graph, no gating. Baselines use it so that
/// every downstream consumer (analysis, controller, RTL) sees one type.
[[nodiscard]] PowerManagedDesign unmanagedDesign(const Graph& g, int steps);

/// Every node's activation condition, each distinct DNF stored once: a
/// node reads its condition as `dnfs[index[n]]`. Entry 0 is TRUE, the
/// condition of every ungated node; the other entries are the distinct
/// conditions of gated nodes in the order they were first resolved.
struct ConditionTable {
  std::vector<GateDnf> dnfs;
  std::vector<std::uint32_t> index;  ///< per node

  [[nodiscard]] const GateDnf& of(NodeId n) const { return dnfs[index[n]]; }
};

/// Fully-resolved activation condition of every node: per-mux gates and
/// shared gating composed into one DNF over select literals. Ungated nodes
/// take entry 0 (TRUE) without building a DNF; a gated node's DNF is
/// deduplicated against the table, term for term. Used by the activation
/// analysis and the controller generator.
[[nodiscard]] ConditionTable resolveActivationConditions(const PowerManagedDesign& design);

/// Static (schedule-independent) gated sets of one mux, each in ascending
/// id order. Exposed for tests and for the §IV-A savings-ordering heuristic.
struct GatedSets {
  std::vector<NodeId> gatedTrue;
  std::vector<NodeId> gatedFalse;
  std::vector<NodeId> topTrue;
  std::vector<NodeId> topFalse;

  /// Some gated node occupies a unit (the transform's candidate test).
  [[nodiscard]] bool gatesWork(const Graph& g) const;
};

/// Gated sets of the muxes of one graph, one mux at a time, in time
/// proportional to the sets found rather than to the graph.
///
/// One side's set is the least set S such that a node joins S when it is
/// neither an Input, Const nor Output and every one of its data fanout
/// edges leads into S or is the mux's operand edge of that side. The walk
/// starts at that operand edge and moves backwards, counting delivered
/// fanout edges per node, so a mux whose operands have other consumers
/// costs O(1). On a DAG the fixed point is unique, and it equals the
/// paper's definition: the side's exclusive fanin cone (minus the other
/// side's and the select's cones) shrunk until no data fanout escapes the
/// set or the mux. A node feeding the select or the other side reaches the
/// mux over an edge that is never delivered, so it cannot join.
///
/// Scratch is sized once per graph and stamped per walk. The graph must not
/// gain nodes or data edges while a finder is alive.
class GatedSetFinder {
 public:
  explicit GatedSetFinder(const Graph& g);
  [[nodiscard]] GatedSets find(NodeId mux);

 private:
  std::vector<NodeId> side(NodeId mux, std::size_t slot);
  /// Scheduled members of `set` with no scheduled in-set ancestor (looking
  /// through in-set wires): the targets of the paper's control edges.
  std::vector<NodeId> tops(const std::vector<NodeId>& set);
  std::uint32_t nextEpoch();

  const Graph& g_;
  const CsrAdjacency& fanouts_;
  std::vector<std::uint32_t> seen_;       ///< walk epoch that touched the node
  std::vector<std::uint32_t> delivered_;  ///< fanout edges delivered (valid if seen_)
  std::vector<std::uint32_t> reach_;      ///< tops(): member at or below a scheduled member
  std::uint32_t epoch_ = 0;
};

/// One-off convenience: GatedSetFinder(g).find(mux).
[[nodiscard]] GatedSets computeGatedSets(const Graph& g, NodeId mux);

/// Producer of a mux's select signal traced through wires; Input/Const ids
/// are returned as-is (caller decides they need no control step).
[[nodiscard]] NodeId traceSelectProducer(const Graph& g, NodeId mux);

/// The paper's algorithm (Fig. 3, steps 1-10). Does not run the final
/// scheduler; callers run listSchedule (through minimizeSchedule) on
/// `result.graph` (step 11). The per-mux
/// schedulability test is TimeFrameOracle::tryCommit's verdict on the
/// committed frames, one candidate at a time; slack rejects carry the
/// unnamed reason "insufficient slack" (see nameSlackRejects()). The test
/// suite keeps a from-scratch reference that recomputes the frames per mux
/// (tests/power_transform_reference.hpp) and requires bit-identical designs.
[[nodiscard]] PowerManagedDesign applyPowerManagement(
    const Graph& g, int steps, MuxOrdering ordering = MuxOrdering::OutputFirst,
    const LatencyModel& model = LatencyModel::unit(), const RunBudget* budget = nullptr);

/// Name the node of every unnamed slack reject in `design`: "insufficient
/// slack: node 'X' would need ASAP > ALAP", X being the first node in id
/// order that the mux's edges would leave infeasible. Replays the design's
/// managed muxes in order on a fresh TimeFrameOracle over `input` (the
/// graph the transform was given) and, at each slack-rejected mux, pushes
/// its edges, reads firstInfeasible() and pops. For reports only; nothing
/// else reads the reasons. Costs one push per managed or slack-rejected mux
/// plus a node scan per reject.
void nameSlackRejects(const Graph& input, PowerManagedDesign& design);

/// Extension (beyond the paper's greedy): exact maximum-savings subset of
/// muxes, found by depth-first search with infeasibility pruning. Because a
/// mux's control edges are schedule-independent, joint feasibility depends
/// only on the chosen subset, making exact search well-defined. Practical
/// for the paper-scale circuits (<= ~50 muxes with shallow conflict
/// structure); `maxMuxes` guards runaway search: candidates past the first
/// `maxMuxes` (by savings) are offered greedily afterwards. The test suite's
/// reference runs the plain include/exclude DFS with one frame computation
/// per search node (tests/power_transform_reference.hpp).
[[nodiscard]] PowerManagedDesign applyPowerManagementOptimal(const Graph& g, int steps,
                                                             std::size_t maxMuxes = 24,
                                                             const RunBudget* budget = nullptr);

}  // namespace pmsched
