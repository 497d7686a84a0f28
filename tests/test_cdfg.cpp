// Unit tests for the CDFG data structure and its structural analyses.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "cdfg/analysis.hpp"
#include "cdfg/graph.hpp"
#include "circuits/circuits.hpp"
#include "support/random_dfg.hpp"

namespace pmsched {
namespace {

Graph diamond() {
  // a,b -> add, sub -> mux(select by cmp) -> out
  Graph g("diamond");
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId c = g.addOp(OpKind::CmpGt, {a, b}, "c");
  const NodeId s = g.addOp(OpKind::Add, {a, b}, "s");
  const NodeId d = g.addOp(OpKind::Sub, {a, b}, "d");
  const NodeId m = g.addMux(c, s, d, "m");
  g.addOutput(m, "out");
  return g;
}

TEST(Graph, BuildAndQuery) {
  const Graph g = diamond();
  EXPECT_EQ(g.size(), 7u);
  const NodeId m = *g.findByName("m");
  EXPECT_EQ(g.kind(m), OpKind::Mux);
  EXPECT_EQ(g.fanins(m).size(), 3u);
  EXPECT_EQ(g.fanouts(m).size(), 1u);  // the output marker
  EXPECT_FALSE(g.findByName("nonexistent").has_value());
}

TEST(Graph, OperandCountEnforced) {
  Graph g;
  const NodeId a = g.addInput("a");
  EXPECT_THROW(g.addOp(OpKind::Add, {a}), SynthesisError);
  EXPECT_THROW(g.addOp(OpKind::Not, {a, a}), SynthesisError);
}

TEST(Graph, ForwardReferencesRejected) {
  Graph g;
  const NodeId a = g.addInput("a");
  EXPECT_THROW(g.addOp(OpKind::Add, {a, static_cast<NodeId>(99)}), SynthesisError);
}

TEST(Graph, ValidateCatchesDuplicateNames) {
  Graph g;
  g.addInput("x");
  g.addInput("x");
  EXPECT_THROW(g.validate(), SynthesisError);
}

TEST(Graph, ValidateCatchesWideMuxSelect) {
  Graph g;
  const NodeId a = g.addInput("a", 8);
  const NodeId b = g.addInput("b", 8);
  const NodeId m = g.addOp(OpKind::Mux, {a, b, b}, "m");  // 8-bit select
  g.addOutput(m, "out");
  EXPECT_THROW(g.validate(), SynthesisError);
}

TEST(Graph, ComparisonWidthIsOne) {
  Graph g;
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId c = g.addOp(OpKind::CmpLe, {a, b});
  EXPECT_EQ(g.node(c).width, 1);
}

TEST(Graph, MuxWidthFollowsDataNotSelect) {
  Graph g;
  const NodeId a = g.addInput("a", 16);
  const NodeId b = g.addInput("b", 16);
  const NodeId c = g.addOp(OpKind::CmpGt, {a, b});
  const NodeId m = g.addMux(c, a, b);
  EXPECT_EQ(g.node(m).width, 16);
}

TEST(Graph, ControlEdgesAreDeduplicated) {
  Graph g = diamond();
  const NodeId c = *g.findByName("c");
  const NodeId s = *g.findByName("s");
  g.addControlEdge(c, s);
  g.addControlEdge(c, s);
  EXPECT_EQ(g.controlEdgeCount(), 1u);
  EXPECT_EQ(g.controlSuccessors(c).size(), 1u);
  EXPECT_EQ(g.controlPredecessors(s).size(), 1u);
}

TEST(Graph, SelfControlEdgeRejected) {
  Graph g = diamond();
  const NodeId c = *g.findByName("c");
  EXPECT_THROW(g.addControlEdge(c, c), SynthesisError);
}

TEST(Graph, ControlCycleDetectedByTopoOrder) {
  Graph g = diamond();
  const NodeId c = *g.findByName("c");
  const NodeId m = *g.findByName("m");
  g.addControlEdge(m, c);  // m depends on c through data: cycle
  EXPECT_THROW(g.topoOrder(), SynthesisError);
}

TEST(Graph, TopoOrderRespectsAllEdges) {
  Graph g = diamond();
  const NodeId c = *g.findByName("c");
  const NodeId s = *g.findByName("s");
  g.addControlEdge(c, s);
  const std::vector<NodeId> order = g.topoOrder();
  std::vector<std::size_t> position(g.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (NodeId n = 0; n < g.size(); ++n) {
    for (const NodeId p : g.fanins(n)) EXPECT_LT(position[p], position[n]);
    for (const NodeId p : g.controlPredecessors(n)) EXPECT_LT(position[p], position[n]);
  }
}

/// Ragged adjacency rebuilt from operands and an edge log, the plain way:
/// the Graph's CSR views and Kahn order must match it exactly.
struct ReferenceAdjacency {
  std::vector<std::vector<NodeId>> fanouts, succ, pred;
  std::size_t edges = 0;

  explicit ReferenceAdjacency(const Graph& g)
      : fanouts(g.size()), succ(g.size()), pred(g.size()) {
    for (NodeId n = 0; n < g.size(); ++n)
      for (const NodeId op : g.node(n).operands) fanouts[op].push_back(n);
  }

  void addNode(const Graph& g, NodeId n) {
    fanouts.emplace_back();
    succ.emplace_back();
    pred.emplace_back();
    for (const NodeId op : g.node(n).operands) fanouts[op].push_back(n);
  }

  /// Mirrors Graph::addControlEdge: duplicates are ignored.
  void addEdge(NodeId from, NodeId to) {
    if (std::find(succ[from].begin(), succ[from].end(), to) != succ[from].end()) return;
    succ[from].push_back(to);
    pred[to].push_back(from);
    ++edges;
  }

  void clearEdges() {
    for (auto& row : succ) row.clear();
    for (auto& row : pred) row.clear();
    edges = 0;
  }

  /// `to` is reachable from `from` over data and control edges.
  [[nodiscard]] bool reaches(NodeId from, NodeId to) const {
    std::vector<char> seen(fanouts.size(), 0);
    std::vector<NodeId> stack{from};
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      if (n == to) return true;
      if (seen[n]) continue;
      seen[n] = 1;
      for (const NodeId s : fanouts[n]) stack.push_back(s);
      for (const NodeId s : succ[n]) stack.push_back(s);
    }
    return false;
  }

  /// Kahn's algorithm, smallest ready id first.
  [[nodiscard]] std::vector<NodeId> topoOrder() const {
    std::vector<int> indegree(fanouts.size(), 0);
    for (NodeId n = 0; n < fanouts.size(); ++n) {
      for (const NodeId s : fanouts[n]) ++indegree[s];
      for (const NodeId s : succ[n]) ++indegree[s];
    }
    std::vector<NodeId> ready, order;
    for (NodeId n = 0; n < fanouts.size(); ++n)
      if (indegree[n] == 0) ready.push_back(n);
    std::make_heap(ready.begin(), ready.end(), std::greater<>{});
    while (!ready.empty()) {
      std::pop_heap(ready.begin(), ready.end(), std::greater<>{});
      const NodeId n = ready.back();
      ready.pop_back();
      order.push_back(n);
      for (const auto* row : {&fanouts[n], &succ[n]})
        for (const NodeId s : *row)
          if (--indegree[s] == 0) {
            ready.push_back(s);
            std::push_heap(ready.begin(), ready.end(), std::greater<>{});
          }
    }
    return order;
  }
};

std::vector<NodeId> asVector(std::span<const NodeId> ids) {
  return std::vector<NodeId>(ids.begin(), ids.end());
}

void expectAdjacencyMatches(const Graph& g, const ReferenceAdjacency& ref,
                            const std::string& what) {
  ASSERT_EQ(g.size(), ref.fanouts.size()) << what;
  ASSERT_EQ(g.controlEdgeCount(), ref.edges) << what;
  ASSERT_EQ(g.fanoutCsr().rowCount(), g.size()) << what;
  ASSERT_EQ(g.controlSuccCsr().edgeCount(), ref.edges) << what;
  ASSERT_EQ(g.controlPredCsr().edgeCount(), ref.edges) << what;
  for (NodeId n = 0; n < g.size(); ++n) {
    ASSERT_EQ(asVector(g.fanouts(n)), ref.fanouts[n]) << what << ": fanouts of " << n;
    ASSERT_EQ(asVector(g.fanoutCsr().row(n)), ref.fanouts[n]) << what << ": fanout row " << n;
    ASSERT_EQ(asVector(g.controlSuccessors(n)), ref.succ[n]) << what << ": succ of " << n;
    ASSERT_EQ(asVector(g.controlPredecessors(n)), ref.pred[n]) << what << ": pred of " << n;
  }
  ASSERT_EQ(g.topoOrder(), ref.topoOrder()) << what;
  ASSERT_EQ(asVector(g.topoOrderView()), g.topoOrder()) << what;
}

void expectSameGraph(const Graph& a, const Graph& b, const std::string& what) {
  ASSERT_EQ(a.name(), b.name()) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.controlEdgeCount(), b.controlEdgeCount()) << what;
  for (NodeId n = 0; n < a.size(); ++n) {
    const Node& x = a.node(n);
    const Node& y = b.node(n);
    ASSERT_TRUE(x.kind == y.kind && x.name == y.name && x.operands == y.operands &&
                x.width == y.width && x.constValue == y.constValue && x.shift == y.shift)
        << what << ": node " << n;
    ASSERT_EQ(asVector(a.fanouts(n)), asVector(b.fanouts(n))) << what << ": node " << n;
    ASSERT_EQ(asVector(a.controlSuccessors(n)), asVector(b.controlSuccessors(n))) << what;
    ASSERT_EQ(asVector(a.controlPredecessors(n)), asVector(b.controlPredecessors(n))) << what;
  }
  ASSERT_EQ(a.topoOrder(), b.topoOrder()) << what;
}

TEST(Graph, AdjacencyViewsMatchReferenceAtRealisticSize) {
  // 512x16 with random control edges: forward ones, backward ones (by id)
  // that keep the graph acyclic, repeats of edges already present, nodes
  // added after edges exist, a copy, and clearControlEdges.
  Graph g = randomLayeredDfg(512, 16, 1);
  ReferenceAdjacency ref(g);
  std::mt19937_64 rng(22);
  std::vector<std::pair<NodeId, NodeId>> added;
  const auto addRandomEdges = [&](int count) {
    const auto n = static_cast<NodeId>(g.size());
    for (int i = 0; i < count; ++i) {
      const int pick = static_cast<int>(rng() % 8);
      if (pick == 0 && !added.empty()) {  // an exact repeat
        const auto [from, to] = added[rng() % added.size()];
        g.addControlEdge(from, to);
        ref.addEdge(from, to);
        continue;
      }
      const auto from = static_cast<NodeId>(rng() % n);
      // A target at most six layers away, in either direction.
      const std::uint64_t lowest = from > 96 ? from - 96 : 0;
      const auto to = static_cast<NodeId>(std::min<std::uint64_t>(n - 1, lowest + rng() % 193));
      if (from == to || ref.reaches(to, from)) continue;  // keeps the graph acyclic
      g.addControlEdge(from, to);
      ref.addEdge(from, to);
      added.emplace_back(from, to);
    }
  };

  expectAdjacencyMatches(g, ref, "no control edges");
  if (HasFailure()) return;

  // Control edges leave the data-fanout view alone: a row taken before
  // them still reads correctly after them.
  const std::span<const NodeId> before = g.fanouts(5);
  addRandomEdges(400);
  ASSERT_EQ(asVector(before), ref.fanouts[5]);
  const bool anyBackward = std::any_of(added.begin(), added.end(),
                                       [](const auto& e) { return e.second < e.first; });
  ASSERT_TRUE(anyBackward);
  ASSERT_LT(ref.edges, 400u);  // some picks were repeats or skipped
  expectAdjacencyMatches(g, ref, "after 400 picks");
  if (HasFailure()) return;

  // Nodes added after control edges exist, then edges that touch them.
  for (int i = 0; i < 8; ++i) {
    const auto n = static_cast<NodeId>(g.size());
    const NodeId id = g.addOp(OpKind::Add, {n - 1 - static_cast<NodeId>(rng() % 32), n - 1});
    ref.addNode(g, id);
    const auto from = static_cast<NodeId>(rng() % 64);
    g.addControlEdge(from, id);
    ref.addEdge(from, id);
  }
  expectAdjacencyMatches(g, ref, "after late nodes");
  if (HasFailure()) return;

  const Graph copy = g;
  expectSameGraph(copy, g, "copy");
  if (HasFailure()) return;

  g.clearControlEdges();
  ref.clearEdges();
  added.clear();
  expectAdjacencyMatches(g, ref, "after clearControlEdges");
  if (HasFailure()) return;
  addRandomEdges(200);
  expectAdjacencyMatches(g, ref, "after clear and 200 picks");
  if (HasFailure()) return;

  // The copy kept its own edges.
  ASSERT_GT(copy.controlEdgeCount(), g.controlEdgeCount());
}

TEST(Analysis, DepthsAndCriticalPath) {
  const Graph g = diamond();
  const std::vector<int> depth = nodeDepths(g);
  EXPECT_EQ(depth[*g.findByName("c")], 1);
  EXPECT_EQ(depth[*g.findByName("m")], 2);
  EXPECT_EQ(criticalPathLength(g), 2);
}

TEST(Analysis, WiresAreTransparentForDepth) {
  Graph g;
  const NodeId a = g.addInput("a");
  const NodeId w = g.addWire(a, 2);
  const NodeId b = g.addInput("b");
  const NodeId s = g.addOp(OpKind::Add, {w, b}, "s");
  g.addOutput(s, "out");
  EXPECT_EQ(criticalPathLength(g), 1);
}

TEST(Analysis, ControlEdgesLengthenCriticalPath) {
  Graph g = diamond();
  EXPECT_EQ(criticalPathLength(g), 2);
  g.addControlEdge(*g.findByName("c"), *g.findByName("s"));
  EXPECT_EQ(criticalPathLength(g), 3);  // c -> s -> m
}

TEST(Analysis, DistanceToOutput) {
  const Graph g = diamond();
  const std::vector<int> dist = distanceToOutput(g);
  EXPECT_EQ(dist[*g.findByName("m")], 0);
  EXPECT_EQ(dist[*g.findByName("s")], 1);
  EXPECT_EQ(dist[*g.findByName("a")], 2);
}

TEST(Analysis, CountOpsMatchesConstruction) {
  const OpStats stats = countOps(diamond());
  EXPECT_EQ(stats.mux, 1);
  EXPECT_EQ(stats.comp, 1);
  EXPECT_EQ(stats.add, 1);
  EXPECT_EQ(stats.sub, 1);
  EXPECT_EQ(stats.mul, 0);
  EXPECT_EQ(stats.totalUnits(), 4);
}

TEST(Analysis, DotExportMentionsEveryNode) {
  Graph g = diamond();
  g.addControlEdge(*g.findByName("c"), *g.findByName("s"));
  const std::string dot = toDot(g);
  for (NodeId n = 0; n < g.size(); ++n)
    EXPECT_NE(dot.find(g.node(n).name), std::string::npos) << g.node(n).name;
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // the control edge
}

TEST(Analysis, PaperCircuitsHaveConsistentDepths) {
  for (const auto& circuit : circuits::paperCircuits()) {
    const Graph g = circuit.build();
    const std::vector<int> depth = nodeDepths(g);
    for (const NodeId n : g.topoOrder())
      for (const NodeId p : g.fanins(n))
        EXPECT_LE(depth[p], depth[n]) << circuit.name << ": " << g.node(n).name;
  }
}

}  // namespace
}  // namespace pmsched
