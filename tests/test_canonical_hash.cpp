// Canonical-form invariance suite (src/cdfg/analysis.hpp).
//
// The design cache keys requests by canonicalHash(), so two properties are
// load-bearing: isomorphic graphs (same structure, any node names, any
// insertion order) must canonicalize identically, and structural edits —
// however small — must change the form. Both are exercised across 100+
// seeded random DFGs.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

#include "cdfg/analysis.hpp"
#include "cdfg/graph.hpp"
#include "graph_permute.hpp"
#include "support/random_dfg.hpp"

namespace pmsched {
namespace {

/// Every node renamed (p0, p1, ...), added in `order`; `tweak` may edit
/// one node record before insertion.
Graph rebuild(const Graph& g, const std::vector<NodeId>& order,
              const std::function<void(NodeId, Node&)>& tweak = nullptr) {
  return rebuildInOrder(g, order, "p", tweak);
}

std::vector<Graph> testGraphs() {
  std::vector<Graph> graphs;
  for (int layers = 2; layers <= 6; ++layers)
    for (int perLayer = 2; perLayer <= 6; ++perLayer)
      for (std::uint64_t seed : {1ULL, 17ULL, 99ULL, 4242ULL, 31337ULL})
        graphs.push_back(randomLayeredDfg(layers, perLayer, seed));
  return graphs;  // 5*5*5 = 125 graphs
}

TEST(CanonicalHash, RenameInvariance) {
  std::size_t checked = 0;
  for (const Graph& g : testGraphs()) {
    const CanonicalForm original = canonicalizeGraph(g);
    // Same insertion order, every node renamed.
    const Graph renamed = rebuild(g, g.allNodes());
    const CanonicalForm form = canonicalizeGraph(renamed);
    ASSERT_EQ(original.text, form.text);
    ASSERT_EQ(original.hash, form.hash);
    ++checked;
  }
  EXPECT_GE(checked, 100u);
}

TEST(CanonicalHash, InsertionOrderInvariance) {
  std::mt19937_64 rng(0xDAC1996);
  std::size_t checked = 0;
  for (const Graph& g : testGraphs()) {
    const CanonicalForm original = canonicalizeGraph(g);
    for (int round = 0; round < 3; ++round) {
      const Graph shuffled = rebuild(g, randomTopoOrder(g, rng));
      const CanonicalForm form = canonicalizeGraph(shuffled);
      ASSERT_EQ(original.text, form.text);
      ASSERT_EQ(original.hash, form.hash);
    }
    ++checked;
  }
  EXPECT_GE(checked, 100u);
}

TEST(CanonicalHash, StructuralEditsChangeTheForm) {
  std::mt19937_64 rng(7);
  for (const Graph& g : testGraphs()) {
    const CanonicalForm original = canonicalizeGraph(g);

    // Edit 1: flip one binary arithmetic op.
    std::vector<NodeId> arith;
    for (NodeId id = 0; id < g.size(); ++id)
      if (g.kind(id) == OpKind::Add || g.kind(id) == OpKind::Sub) arith.push_back(id);
    if (!arith.empty()) {
      const NodeId victim = arith[rng() % arith.size()];
      const Graph edited = rebuild(g, g.allNodes(), [&](NodeId id, Node& n) {
        if (id == victim) n.kind = n.kind == OpKind::Add ? OpKind::Sub : OpKind::Add;
      });
      EXPECT_NE(original.text, canonicalizeGraph(edited).text);
    }

    // Edit 2: swap a mux's true/false inputs (slots are semantic).
    for (NodeId id = 0; id < g.size(); ++id) {
      const Node& n = g.node(id);
      if (n.kind == OpKind::Mux && n.operands[1] != n.operands[2]) {
        const Graph edited = rebuild(g, g.allNodes(), [&](NodeId nid, Node& node) {
          if (nid == id) std::swap(node.operands[1], node.operands[2]);
        });
        EXPECT_NE(original.text, canonicalizeGraph(edited).text);
        break;
      }
    }

    // Edit 3: a new control edge is part of the identity.
    {
      Graph edited = g.clone();
      const std::vector<NodeId> sched = edited.scheduledNodes();
      if (sched.size() >= 2) {
        const std::vector<NodeId> topo(edited.topoOrder());
        // First and last scheduled node in topo order: always acyclic.
        NodeId first = kInvalidNode, last = kInvalidNode;
        for (NodeId id : topo)
          if (std::find(sched.begin(), sched.end(), id) != sched.end()) {
            if (first == kInvalidNode) first = id;
            last = id;
          }
        if (first != last) {
          edited.addControlEdge(first, last);
          EXPECT_NE(original.text, canonicalizeGraph(edited).text);
        }
      }
    }
  }
}

TEST(CanonicalHash, ConstValueAndWidthAreSemantic) {
  const Graph g = randomLayeredDfg(4, 4, 11);
  const CanonicalForm original = canonicalizeGraph(g);

  bool editedConst = false;
  for (NodeId id = 0; id < g.size() && !editedConst; ++id)
    if (g.kind(id) == OpKind::Const) {
      const Graph edited = rebuild(g, g.allNodes(), [&](NodeId nid, Node& n) {
        if (nid == id) n.constValue += 1;
      });
      EXPECT_NE(original.text, canonicalizeGraph(edited).text);
      editedConst = true;
    }

  const Graph widened = rebuild(g, g.allNodes(), [&](NodeId nid, Node& n) {
    if (nid == 0) n.width += 8;
  });
  EXPECT_NE(original.text, canonicalizeGraph(widened).text);
}

TEST(CanonicalHash, OrderAndIndexAreInversePermutations) {
  const Graph g = randomLayeredDfg(5, 5, 3);
  const CanonicalForm form = canonicalizeGraph(g);
  ASSERT_EQ(form.order.size(), g.size());
  ASSERT_EQ(form.indexOf.size(), g.size());
  for (std::size_t i = 0; i < form.order.size(); ++i)
    EXPECT_EQ(form.indexOf[form.order[i]], i);
  EXPECT_EQ(form.hash, canonicalHash(g));
}

TEST(CanonicalHash, DistinctSeedsProduceDistinctForms) {
  // Sanity against degenerate hashing: different structures should
  // (essentially always) disagree.
  const CanonicalForm a = canonicalizeGraph(randomLayeredDfg(4, 4, 1));
  const CanonicalForm b = canonicalizeGraph(randomLayeredDfg(4, 4, 2));
  EXPECT_NE(a.text, b.text);
  EXPECT_NE(a.hash, b.hash);
}

}  // namespace
}  // namespace pmsched
