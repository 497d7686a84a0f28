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
// Storage: every per-node array is flat. A node keeps its (at most three)
// operands inline, and the control edges are one list in insertion order,
// so copying or destroying a Graph costs a handful of vector copies and no
// per-node allocation.
//
// Adjacency views: data fanouts, control successors and control
// predecessors exist only as CSR (compressed sparse row) views, together
// with a cached topological order. Each view is built by the first const
// call that needs it and kept until a mutation invalidates it:
//   * addNode (any add* of a node) invalidates every view;
//   * addControlEdge and clearControlEdges invalidate the two control
//     views and the topological order, never the data-fanout view.
// Spans and CsrAdjacency contents handed out by a view are valid until the
// next mutation that invalidates it; a `const CsrAdjacency&` keeps naming
// the Graph's member, whose contents are rebuilt by the next call. Row
// order is fixed: a fanout row lists consumers in ascending id, once per
// operand use; a control row lists its edges in insertion order.
//
// Because the first const call mutates `mutable` members, a Graph must not
// be read from two threads at once without external synchronization. No
// code path shares one: each design job, server request and explore sweep
// owns its graphs.

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

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

/// The ordered data inputs of one node, stored inline: no operation takes
/// more than three (a mux's select, true and false inputs).
class OperandList {
 public:
  static constexpr std::size_t kCapacity = 3;

  OperandList() = default;
  OperandList(std::initializer_list<NodeId> ids)
      : OperandList(std::span<const NodeId>(ids.begin(), ids.size())) {}
  /// Throws SynthesisError when `ids` holds more than kCapacity operands.
  explicit OperandList(std::span<const NodeId> ids);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const NodeId* begin() const { return ids_.data(); }
  [[nodiscard]] const NodeId* end() const { return ids_.data() + size_; }
  [[nodiscard]] NodeId operator[](std::size_t i) const { return ids_[i]; }
  NodeId& operator[](std::size_t i) { return ids_[i]; }
  /// Bounds-checked access; throws std::out_of_range past size().
  [[nodiscard]] NodeId at(std::size_t i) const;
  operator std::span<const NodeId>() const { return {ids_.data(), size_}; }

  friend bool operator==(const OperandList& a, const OperandList& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::array<NodeId, kCapacity> ids_{};
  std::uint8_t size_ = 0;
};

/// One CDFG operation.
struct Node {
  OpKind kind = OpKind::Input;
  std::string name;                ///< user-visible name; unique per graph
  OperandList operands;            ///< data inputs, ordered
  int width = 8;                   ///< result width in bits (cmp results are 1)
  std::int64_t constValue = 0;     ///< for OpKind::Const
  int shift = 0;                   ///< for OpKind::Wire: >0 right, <0 left
};

/// One adjacency relation in compressed-sparse-row form: all rows share two
/// flat arrays, so iterating a row is a pointer walk with no per-node heap
/// indirection. Views are owned by the Graph and rebuilt lazily.
class CsrAdjacency {
 public:
  [[nodiscard]] std::span<const NodeId> row(NodeId n) const {
    return std::span<const NodeId>(targets_.data() + offsets_[n],
                                   targets_.data() + offsets_[n + 1]);
  }
  [[nodiscard]] std::size_t rowCount() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  [[nodiscard]] std::size_t edgeCount() const { return targets_.size(); }

 private:
  friend class Graph;

  /// Stable counting sort of (row, target) pairs into `rows` rows:
  /// `forEachPair(emit)` calls emit(row, target) once per pair, the same
  /// way both times it is called, and each row keeps its targets in
  /// emission order.
  template <typename ForEachPair>
  void build(std::size_t rows, ForEachPair forEachPair);

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
  NodeId addOp(OpKind kind, std::span<const NodeId> operands, std::string name = {},
               int width = -1);
  NodeId addOp(OpKind kind, std::initializer_list<NodeId> operands, std::string name = {},
               int width = -1) {
    return addOp(kind, std::span<const NodeId>(operands.begin(), operands.size()),
                 std::move(name), width);
  }
  /// Mux with the (sel, whenTrue, whenFalse) convention above.
  NodeId addMux(NodeId sel, NodeId whenTrue, NodeId whenFalse, std::string name = {});
  /// Free pass-through (realized as wiring); `shift` > 0 shifts right.
  NodeId addWire(NodeId source, int shift = 0, std::string name = {});

  /// Pure precedence edge: `after` must be scheduled strictly after `before`.
  /// A repeated edge is ignored.
  void addControlEdge(NodeId before, NodeId after);

  /// Capacity for `nodes` nodes, so a builder that knows its size up front
  /// (the text reader) adds them without regrowing the node array.
  void reserve(std::size_t nodes) { nodes_.reserve(nodes); }

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
  /// Data consumers of `id` in ascending id, each listed once per operand use.
  [[nodiscard]] std::span<const NodeId> fanouts(NodeId id) const {
    return fanoutCsr().row(id);
  }
  /// Control successors / predecessors of `id`, in edge insertion order.
  [[nodiscard]] std::span<const NodeId> controlSuccessors(NodeId id) const {
    return controlSuccCsr().row(id);
  }
  [[nodiscard]] std::span<const NodeId> controlPredecessors(NodeId id) const {
    return controlPredCsr().row(id);
  }
  [[nodiscard]] std::size_t controlEdgeCount() const { return ctrlEdges_.size(); }

  // ---- flat views (hot paths) ---------------------------------------------
  // Built on first use; see the header comment for when they are rebuilt.

  /// CSR view of data fanouts.
  [[nodiscard]] const CsrAdjacency& fanoutCsr() const;
  /// CSR view of control-edge successors.
  [[nodiscard]] const CsrAdjacency& controlSuccCsr() const;
  /// CSR view of control-edge predecessors.
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

  /// Structural checks: operand counts, widths, acyclicity, name uniqueness.
  /// Throws SynthesisError describing the first violation.
  void validate() const;

  /// Remove all control edges (used to re-run transforms from scratch).
  void clearControlEdges();

  /// Deep copy with identical node ids.
  [[nodiscard]] Graph clone() const { return *this; }

 private:
  /// One control edge. `prevFromSame` links the edges that share a source,
  /// newest first (kNoEdge ends the chain), so the duplicate check in
  /// addControlEdge walks one source's edges instead of the whole list.
  struct ControlEdge {
    NodeId from;
    NodeId to;
    std::uint32_t prevFromSame;
  };
  static constexpr std::uint32_t kNoEdge = static_cast<std::uint32_t>(-1);

  NodeId addNode(Node node);
  [[nodiscard]] std::string freshName(std::string_view stem);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<ControlEdge> ctrlEdges_;     ///< insertion order
  std::vector<std::uint32_t> newestFrom_;  ///< per source: newest edge; sized on demand
  std::size_t nameCounter_ = 0;

  // Lazily-built views (see the header comment for the invalidation rules).
  mutable CsrAdjacency fanoutCsr_;
  mutable CsrAdjacency ctrlSuccCsr_;
  mutable CsrAdjacency ctrlPredCsr_;
  mutable std::vector<NodeId> topoCache_;
  mutable bool fanoutValid_ = false;
  mutable bool ctrlValid_ = false;
  mutable bool topoValid_ = false;
};

}  // namespace pmsched
