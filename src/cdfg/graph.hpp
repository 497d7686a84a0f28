#pragma once
// The Control Data Flow Graph: the input to every synthesis pass.
//
// A Graph is a DAG of operation nodes. Data edges carry values; control
// edges (added by the power-management transform) carry pure precedence:
// "the gated node must be scheduled strictly after the controlling node".
//
// Multiplexor convention, used consistently everywhere:
//   operand 0 = select signal ("control input" in the paper),
//   operand 1 = value when select is true  (the paper's "1 input"),
//   operand 2 = value when select is false (the paper's "0 input").
//
// Hot-path views: the schedulers and the power transform traverse the graph
// many times per run, so the Graph keeps lazily-built, mutation-invalidated
// caches — CSR (compressed sparse row) copies of the fanout/control
// adjacency and a topological order. The caches are rebuilt at most once per
// mutation epoch; any mutation (addNode/addControlEdge/clearControlEdges)
// invalidates all previously returned CSR references and topo spans. Lazy
// rebuilding mutates `mutable` members, so concurrent const access from
// multiple threads is not safe without external synchronization.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cdfg/node_mask.hpp"
#include "cdfg/op.hpp"
#include "support/diagnostics.hpp"

namespace pmsched {

/// Index of a node within its Graph. Stable for the Graph's lifetime.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Which data input of a mux a value feeds (paper's "0 input"/"1 input").
enum class MuxSide : std::uint8_t { False = 0, True = 1 };

[[nodiscard]] constexpr MuxSide oppositeSide(MuxSide s) {
  return s == MuxSide::True ? MuxSide::False : MuxSide::True;
}

/// One CDFG operation.
struct Node {
  OpKind kind = OpKind::Input;
  std::string name;                ///< user-visible name; unique per graph
  std::vector<NodeId> operands;    ///< data inputs, ordered
  int width = 8;                   ///< result width in bits (cmp results are 1)
  std::int64_t constValue = 0;     ///< for OpKind::Const
  int shift = 0;                   ///< for OpKind::Wire: >0 right, <0 left
};

/// One adjacency relation in compressed-sparse-row form: all rows share two
/// flat arrays, so iterating a row is a pointer walk with no per-node heap
/// indirection. Snapshots are owned by the Graph and rebuilt lazily.
class CsrAdjacency {
 public:
  [[nodiscard]] std::span<const NodeId> row(NodeId n) const {
    return std::span<const NodeId>(targets_.data() + offsets_[n],
                                   targets_.data() + offsets_[n + 1]);
  }
  [[nodiscard]] std::size_t rowCount() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  [[nodiscard]] std::size_t edgeCount() const { return targets_.size(); }

  /// Build from ragged per-node adjacency.
  static CsrAdjacency fromRagged(const std::vector<std::vector<NodeId>>& rows);

 private:
  std::vector<std::uint32_t> offsets_;  ///< size N+1; row n is [offsets_[n], offsets_[n+1])
  std::vector<NodeId> targets_;
};

/// The CDFG plus control (precedence-only) edges.
class Graph {
 public:
  explicit Graph(std::string name = "cdfg") : name_(std::move(name)) {}

  // ---- construction -------------------------------------------------------

  NodeId addInput(std::string name, int width = 8);
  NodeId addConst(std::int64_t value, int width = 8, std::string name = {});
  NodeId addOutput(NodeId source, std::string name);
  /// Generic operation; checks operand count for `kind`.
  NodeId addOp(OpKind kind, std::vector<NodeId> operands, std::string name = {}, int width = -1);
  /// Mux with the (sel, whenTrue, whenFalse) convention above.
  NodeId addMux(NodeId sel, NodeId whenTrue, NodeId whenFalse, std::string name = {});
  /// Free pass-through (realized as wiring); `shift` > 0 shifts right.
  NodeId addWire(NodeId source, int shift = 0, std::string name = {});

  /// Pure precedence edge: `after` must be scheduled strictly after `before`.
  void addControlEdge(NodeId before, NodeId after);

  /// Capacity for `nodes` nodes, so a builder that knows its size up front
  /// (the text reader) adds them without regrowing the per-node arrays.
  void reserve(std::size_t nodes);

  // ---- queries -------------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  void setName(std::string n) { name_ = std::move(n); }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] OpKind kind(NodeId id) const { return nodes_.at(id).kind; }

  /// Data operands of `id`.
  [[nodiscard]] std::span<const NodeId> fanins(NodeId id) const {
    return nodes_.at(id).operands;
  }
  /// Data consumers of `id` (each consumer listed once per operand use).
  [[nodiscard]] const std::vector<NodeId>& fanouts(NodeId id) const {
    return fanouts_.at(id);
  }
  [[nodiscard]] const std::vector<NodeId>& controlSuccessors(NodeId id) const {
    return ctrlSucc_.at(id);
  }
  [[nodiscard]] const std::vector<NodeId>& controlPredecessors(NodeId id) const {
    return ctrlPred_.at(id);
  }
  [[nodiscard]] std::size_t controlEdgeCount() const { return ctrlEdgeCount_; }

  // ---- flat views (hot paths) ---------------------------------------------
  // References stay valid until the next mutation. Built on first use.

  /// CSR snapshot of data fanouts.
  [[nodiscard]] const CsrAdjacency& fanoutCsr() const;
  /// CSR snapshot of control-edge successors.
  [[nodiscard]] const CsrAdjacency& controlSuccCsr() const;
  /// CSR snapshot of control-edge predecessors.
  [[nodiscard]] const CsrAdjacency& controlPredCsr() const;

  /// Cached topological order over data + control edges; same order as
  /// topoOrder() but without the per-call allocation. Throws on a cycle.
  [[nodiscard]] std::span<const NodeId> topoOrderView() const;

  /// All node ids, in insertion order.
  [[nodiscard]] std::vector<NodeId> allNodes() const;
  /// Ids of every node with the given kind.
  [[nodiscard]] std::vector<NodeId> nodesOfKind(OpKind kind) const;
  /// Ids of every scheduled (unit-consuming) node.
  [[nodiscard]] std::vector<NodeId> scheduledNodes() const;

  /// Find a node by name; nullopt if absent.
  [[nodiscard]] std::optional<NodeId> findByName(std::string_view name) const;

  // ---- structure -----------------------------------------------------------

  /// Topological order over data + control edges. Throws SynthesisError on a
  /// cycle (control edges can create one if a transform misbehaves).
  [[nodiscard]] std::vector<NodeId> topoOrder() const;

  /// Transitive data fanin of `id` (excluding `id` itself) as a node mask.
  [[nodiscard]] NodeMask transitiveFanin(NodeId id) const;
  /// Transitive fanin of one operand subtree: everything reachable backwards
  /// from operand `opIndex` of `id` (including that operand node).
  [[nodiscard]] NodeMask operandCone(NodeId id, std::size_t opIndex) const;

  /// Structural checks: operand counts, widths, acyclicity, name uniqueness.
  /// Throws SynthesisError describing the first violation.
  void validate() const;

  /// Remove all control edges (used to re-run transforms from scratch).
  void clearControlEdges();

  /// Deep copy with identical node ids.
  [[nodiscard]] Graph clone() const { return *this; }

 private:
  NodeId addNode(Node node);
  [[nodiscard]] std::string freshName(std::string_view stem);
  void invalidateCaches();
  [[nodiscard]] NodeMask backwardReach(std::span<const NodeId> roots) const;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> fanouts_;
  std::vector<std::vector<NodeId>> ctrlSucc_;
  std::vector<std::vector<NodeId>> ctrlPred_;
  std::size_t ctrlEdgeCount_ = 0;
  std::size_t nameCounter_ = 0;

  // Lazily-built caches (see the header comment for the invalidation rules).
  mutable CsrAdjacency fanoutCsr_;
  mutable CsrAdjacency ctrlSuccCsr_;
  mutable CsrAdjacency ctrlPredCsr_;
  mutable bool csrValid_ = false;
  mutable std::vector<NodeId> topoCache_;
  mutable bool topoValid_ = false;
};

}  // namespace pmsched
