#pragma once
// Structural analyses over a CDFG: levels, critical path, output distance,
// and the operation statistics reported in the paper's Table I.

#include <array>
#include <string>
#include <vector>

#include "cdfg/graph.hpp"

namespace pmsched {

/// Longest-path depth of every node counting only scheduled (unit-consuming)
/// nodes, over data + control edges.
///
/// depth[n] is the earliest control step node n could occupy (1-based) with
/// unlimited resources; transparent nodes (inputs, constants, wires, outputs)
/// get the step after which their value is available (0 = available before
/// step 1).
[[nodiscard]] std::vector<int> nodeDepths(const Graph& g);

/// Minimum number of control steps to execute the graph with unlimited
/// resources — the paper's Table I "Critical Path" column.
[[nodiscard]] int criticalPathLength(const Graph& g);

/// Longest downstream distance (in scheduled nodes) from each node to any
/// graph output; used to order multiplexors "closer to the outputs first".
[[nodiscard]] std::vector<int> distanceToOutput(const Graph& g);

/// Counts of operations per display class, Table I style.
struct OpStats {
  int mux = 0;
  int comp = 0;
  int add = 0;
  int sub = 0;
  int mul = 0;
  int logic = 0;
  int shift = 0;

  [[nodiscard]] int totalUnits() const { return mux + comp + add + sub + mul + logic + shift; }
};

[[nodiscard]] OpStats countOps(const Graph& g);

/// Per-unit-class counts as a dense array indexed by unitIndex().
[[nodiscard]] std::array<int, kNumUnitClasses> countByClass(const Graph& g);

/// Graphviz DOT rendering (control edges dashed), for debugging/docs.
[[nodiscard]] std::string toDot(const Graph& g);

// ---------------------------------------------------------------------------
// Canonical form — identity of a CDFG modulo node naming and insertion order.
//
// Two graphs that differ only in node names, or in the order their
// producers-first statements were emitted, canonicalize to the same text
// and hash. The server's design cache (src/server/design_cache.hpp) keys
// finished results on the text together with `order`: the pipeline breaks
// ties by node id, so a renamed graph in the same statement order is served
// from the cache and a reordered one is not.
//
// Construction: two refinement passes assign every node a structural
// signature — an "up" hash over its fanin cone (kind, width, constant
// value / wire shift, ordered operand signatures, control predecessors) and
// a "down" hash over its consumer context (which operand slot of which
// consumer it feeds) — then a Kahn traversal over data + control edges picks
// ready nodes in ascending priority order and assigns canonical indices.
// The pop priority folds the already-assigned canonical indices of the
// node's predecessors into its static signature: static signatures alone
// can tie for locally-isomorphic but non-automorphic nodes (two
// sub(input, input) nodes sharing an operand, say), and the predecessor
// indices — pure pop history — separate any such pair whose operand tuples
// differ, independent of insertion order. Residual exact ties require equal
// signatures AND equal operand index tuples, i.e. nodes the refinement
// cannot tell apart from either direction; either pop order serializes
// identically for those. The cache never trusts the hash alone: entries
// store the full canonical text and compare it on every hit, so a
// coincidence costs a cache miss, never a wrong result.
// ---------------------------------------------------------------------------

struct CanonicalForm {
  std::string text;    ///< name-free canonical serialization
  std::uint64_t hash;  ///< 64-bit FNV-1a of `text`
  std::vector<NodeId> order;           ///< canonical index -> original NodeId
  std::vector<std::uint32_t> indexOf;  ///< original NodeId -> canonical index
};

/// Canonicalize `g` (data + control edges both participate).
[[nodiscard]] CanonicalForm canonicalizeGraph(const Graph& g);

/// Just the hash — equal for graphs that are isomorphic under node
/// renaming / reordering, different (up to hash collision) for any
/// structural edit. Cache keys must pair it with the full canonical text.
[[nodiscard]] std::uint64_t canonicalHash(const Graph& g);

}  // namespace pmsched
