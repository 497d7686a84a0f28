#include "cdfg/graph.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "cdfg/name_table.hpp"

namespace pmsched {

OperandList::OperandList(std::span<const NodeId> ids) {
  if (ids.size() > kCapacity)
    throw SynthesisError("a node takes at most " + std::to_string(kCapacity) +
                         " operands, got " + std::to_string(ids.size()));
  std::copy(ids.begin(), ids.end(), ids_.begin());
  size_ = static_cast<std::uint8_t>(ids.size());
}

NodeId OperandList::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("OperandList::at");
  return ids_[i];
}

template <typename ForEachPair>
void CsrAdjacency::build(std::size_t rows, ForEachPair forEachPair) {
  // offsets_[r + 2] first counts row r; after the prefix sum offsets_[r + 1]
  // is row r's start, and placing a target advances it, so it ends at row
  // r's end, which is row r + 1's start.
  offsets_.assign(rows + 2, 0);
  forEachPair([&](NodeId row, NodeId) { ++offsets_[row + 2]; });
  for (std::size_t r = 2; r < offsets_.size(); ++r) offsets_[r] += offsets_[r - 1];
  targets_.resize(offsets_.back());
  forEachPair([&](NodeId row, NodeId target) { targets_[offsets_[row + 1]++] = target; });
  offsets_.pop_back();
}

NodeId Graph::addNode(Node node) {
  if (node.name.empty()) node.name = freshName(opName(node.kind));
  const auto id = static_cast<NodeId>(nodes_.size());
  for (const NodeId op : node.operands) {
    if (op >= id) throw SynthesisError("operand " + std::to_string(op) + " of node '" +
                                       node.name + "' does not exist yet");
  }
  nodes_.push_back(std::move(node));
  fanoutValid_ = ctrlValid_ = topoValid_ = false;
  return id;
}

std::string Graph::freshName(std::string_view stem) {
  return std::string(stem) + "_" + std::to_string(nameCounter_++);
}

NodeId Graph::addInput(std::string name, int width) {
  Node n;
  n.kind = OpKind::Input;
  n.name = std::move(name);
  n.width = width;
  return addNode(std::move(n));
}

NodeId Graph::addConst(std::int64_t value, int width, std::string name) {
  Node n;
  n.kind = OpKind::Const;
  n.name = std::move(name);
  n.width = width;
  n.constValue = value;
  return addNode(std::move(n));
}

NodeId Graph::addOutput(NodeId source, std::string name) {
  Node n;
  n.kind = OpKind::Output;
  n.name = std::move(name);
  n.operands = {source};
  n.width = nodes_.at(source).width;
  return addNode(std::move(n));
}

NodeId Graph::addOp(OpKind kind, std::span<const NodeId> operands, std::string name,
                    int width) {
  if (static_cast<int>(operands.size()) != operandCount(kind))
    throw SynthesisError(std::string("addOp(") + std::string(opName(kind)) + "): expected " +
                         std::to_string(operandCount(kind)) + " operands, got " +
                         std::to_string(operands.size()));
  for (const NodeId op : operands)
    if (op >= size())
      throw SynthesisError(std::string("addOp(") + std::string(opName(kind)) +
                           "): operand does not exist yet");
  Node n;
  n.kind = kind;
  n.name = std::move(name);
  n.operands = OperandList(operands);
  if (width >= 0) {
    n.width = width;
  } else if (isComparison(kind)) {
    n.width = 1;
  } else if (!n.operands.empty()) {
    // Result width defaults to the widest data operand (mux skips the select).
    int w = 0;
    const std::size_t first = kind == OpKind::Mux ? 1 : 0;
    for (std::size_t i = first; i < n.operands.size(); ++i)
      w = std::max(w, nodes_.at(n.operands[i]).width);
    n.width = w;
  }
  return addNode(std::move(n));
}

NodeId Graph::addMux(NodeId sel, NodeId whenTrue, NodeId whenFalse, std::string name) {
  return addOp(OpKind::Mux, {sel, whenTrue, whenFalse}, std::move(name));
}

NodeId Graph::addWire(NodeId source, int shift, std::string name) {
  Node n;
  n.kind = OpKind::Wire;
  n.name = std::move(name);
  n.operands = {source};
  n.width = nodes_.at(source).width;
  n.shift = shift;
  return addNode(std::move(n));
}

void Graph::addControlEdge(NodeId before, NodeId after) {
  if (before >= size() || after >= size())
    throw SynthesisError("addControlEdge: node id out of range");
  if (before == after) throw SynthesisError("addControlEdge: self edge");
  // Ignore duplicates so transforms can be idempotent.
  if (newestFrom_.size() < size()) newestFrom_.resize(size(), kNoEdge);
  for (std::uint32_t e = newestFrom_[before]; e != kNoEdge; e = ctrlEdges_[e].prevFromSame)
    if (ctrlEdges_[e].to == after) return;
  ctrlEdges_.push_back(ControlEdge{before, after, newestFrom_[before]});
  newestFrom_[before] = static_cast<std::uint32_t>(ctrlEdges_.size() - 1);
  ctrlValid_ = topoValid_ = false;
}

void Graph::clearControlEdges() {
  ctrlEdges_.clear();
  newestFrom_.clear();
  ctrlValid_ = topoValid_ = false;
}

const CsrAdjacency& Graph::fanoutCsr() const {
  if (!fanoutValid_) {
    fanoutCsr_.build(size(), [&](auto emit) {
      for (NodeId n = 0; n < size(); ++n)
        for (const NodeId op : nodes_[n].operands) emit(op, n);
    });
    fanoutValid_ = true;
  }
  return fanoutCsr_;
}

const CsrAdjacency& Graph::controlSuccCsr() const {
  if (!ctrlValid_) {
    ctrlSuccCsr_.build(size(), [&](auto emit) {
      for (const ControlEdge& e : ctrlEdges_) emit(e.from, e.to);
    });
    ctrlPredCsr_.build(size(), [&](auto emit) {
      for (const ControlEdge& e : ctrlEdges_) emit(e.to, e.from);
    });
    ctrlValid_ = true;
  }
  return ctrlSuccCsr_;
}

const CsrAdjacency& Graph::controlPredCsr() const {
  (void)controlSuccCsr();  // builds both control views together
  return ctrlPredCsr_;
}

std::vector<NodeId> Graph::allNodes() const {
  std::vector<NodeId> out(size());
  for (NodeId i = 0; i < size(); ++i) out[i] = i;
  return out;
}

std::vector<NodeId> Graph::nodesOfKind(OpKind kind) const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < size(); ++i)
    if (nodes_[i].kind == kind) out.push_back(i);
  return out;
}

std::vector<NodeId> Graph::scheduledNodes() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < size(); ++i)
    if (isScheduled(nodes_[i].kind)) out.push_back(i);
  return out;
}

std::optional<NodeId> Graph::findByName(std::string_view name) const {
  for (NodeId i = 0; i < size(); ++i)
    if (nodes_[i].name == name) return i;
  return std::nullopt;
}

std::span<const NodeId> Graph::topoOrderView() const {
  if (topoValid_) return topoCache_;

  // Data edges always run from a lower id to a higher one (addNode only
  // accepts existing operands). When every control edge does too, the
  // smallest-id-first Kahn order below is exactly 0, 1, ..., n-1.
  const bool forward = std::all_of(ctrlEdges_.begin(), ctrlEdges_.end(),
                                  [](const ControlEdge& e) { return e.to > e.from; });
  if (forward) {
    topoCache_.resize(size());
    std::iota(topoCache_.begin(), topoCache_.end(), NodeId{0});
    topoValid_ = true;
    return topoCache_;
  }

  const CsrAdjacency& fanouts = fanoutCsr();
  const CsrAdjacency& ctrlSucc = controlSuccCsr();
  std::vector<int> indegree(size(), 0);
  for (NodeId i = 0; i < size(); ++i) indegree[i] = static_cast<int>(nodes_[i].operands.size());
  for (const ControlEdge& e : ctrlEdges_) ++indegree[e.to];
  std::vector<NodeId> ready;
  for (NodeId i = 0; i < size(); ++i)
    if (indegree[i] == 0) ready.push_back(i);

  std::vector<NodeId> order;
  order.reserve(size());
  // Process smallest id first for deterministic order.
  std::make_heap(ready.begin(), ready.end(), std::greater<>{});
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), std::greater<>{});
    const NodeId n = ready.back();
    ready.pop_back();
    order.push_back(n);
    auto relax = [&](NodeId succ) {
      if (--indegree[succ] == 0) {
        ready.push_back(succ);
        std::push_heap(ready.begin(), ready.end(), std::greater<>{});
      }
    };
    for (const NodeId succ : fanouts.row(n)) relax(succ);
    for (const NodeId succ : ctrlSucc.row(n)) relax(succ);
  }
  if (order.size() != size())
    throw SynthesisError("graph '" + name_ + "' contains a cycle (data+control edges)");
  topoCache_ = std::move(order);
  topoValid_ = true;
  return topoCache_;
}

std::vector<NodeId> Graph::topoOrder() const {
  const std::span<const NodeId> view = topoOrderView();
  return std::vector<NodeId>(view.begin(), view.end());
}

void Graph::validate() const {
  NameTable names(*this, size());
  for (NodeId i = 0; i < size(); ++i) {
    const Node& n = nodes_[i];
    if (!names.insert(n.name, i))
      throw SynthesisError("duplicate node name '" + n.name + "'");
    if (static_cast<int>(n.operands.size()) != operandCount(n.kind))
      throw SynthesisError("node '" + n.name + "': wrong operand count");
    for (const NodeId op : n.operands)
      if (op >= size()) throw SynthesisError("node '" + n.name + "': dangling operand");
    if (n.width <= 0 || n.width > 64)
      throw SynthesisError("node '" + n.name + "': width out of range");
    if (isComparison(n.kind) && n.width != 1)
      throw SynthesisError("node '" + n.name + "': comparison width must be 1");
    if (n.kind == OpKind::Mux && nodes_[n.operands[0]].width != 1)
      throw SynthesisError("node '" + n.name + "': mux select must be 1 bit wide");
    if (n.kind == OpKind::Output && !fanouts(i).empty())
      throw SynthesisError("node '" + n.name + "': output has consumers");
  }
  (void)topoOrderView();  // throws on cycles
}

}  // namespace pmsched
