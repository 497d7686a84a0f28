#pragma once
// Test helpers that re-emit a graph in another statement order and/or
// under fresh node names — the isomorphs the canonical form and the design
// cache must tell apart (reordered) or treat as one (renamed).

#include <cstddef>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "cdfg/graph.hpp"

namespace pmsched {

/// A uniformly random producers-first order over data + control edges.
inline std::vector<NodeId> randomTopoOrder(const Graph& g, std::mt19937_64& rng) {
  std::vector<std::size_t> missing(g.size(), 0);
  for (NodeId id = 0; id < g.size(); ++id)
    missing[id] = g.fanins(id).size() + g.controlPredecessors(id).size();
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < g.size(); ++id)
    if (missing[id] == 0) ready.push_back(id);
  std::vector<NodeId> order;
  order.reserve(g.size());
  while (!ready.empty()) {
    const std::size_t pick = rng() % ready.size();
    const NodeId id = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (const NodeId c : g.fanouts(id))
      if (--missing[c] == 0) ready.push_back(c);
    for (const NodeId c : g.controlSuccessors(id))
      if (--missing[c] == 0) ready.push_back(c);
  }
  return order;
}

/// Re-add every node of `g` in `order` (producers first). An empty
/// `namePrefix` keeps the names; otherwise node k of the new order is named
/// `namePrefix` + k. `tweak` may edit a node's record before it is added.
/// Control edges follow under the same mapping, in the order saveGraphText
/// writes them.
inline Graph rebuildInOrder(const Graph& g, const std::vector<NodeId>& order,
                            const std::string& namePrefix = {},
                            const std::function<void(NodeId, Node&)>& tweak = nullptr) {
  Graph out(g.name());
  std::vector<NodeId> map(g.size(), kInvalidNode);
  std::size_t serial = 0;
  std::vector<NodeId> ops;
  for (const NodeId id : order) {
    Node n = g.node(id);
    if (tweak) tweak(id, n);
    const std::string name = namePrefix.empty() ? n.name : namePrefix + std::to_string(serial++);
    ops.clear();
    for (const NodeId o : n.operands) ops.push_back(map[o]);
    switch (n.kind) {
      case OpKind::Input: map[id] = out.addInput(name, n.width); break;
      case OpKind::Const: map[id] = out.addConst(n.constValue, n.width, name); break;
      case OpKind::Output: map[id] = out.addOutput(ops[0], name); break;
      case OpKind::Wire: map[id] = out.addWire(ops[0], n.shift, name); break;
      default: map[id] = out.addOp(n.kind, ops, name, n.width); break;
    }
  }
  for (NodeId id = 0; id < g.size(); ++id)
    for (const NodeId succ : g.controlSuccessors(id)) out.addControlEdge(map[id], map[succ]);
  return out;
}

}  // namespace pmsched
