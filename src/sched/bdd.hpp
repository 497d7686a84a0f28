#pragma once
// Reduced ordered binary decision diagrams (ROBDDs) over select signals.
//
// The activation analysis needs the exact probability that a DNF over
// independent fair selects holds. Enumerating assignments costs 2^support
// and capped the analysis at 24 variables; an ROBDD represents the same
// function in a number of nodes that is usually far smaller than 2^support,
// and the probability falls out of ONE bottom-up weighted pass over the
// reachable nodes:
//
//   P(false) = 0,  P(true) = 1,  P(node) = (P(lo) + P(hi)) / 2
//
// (variables skipped between a node and its children contribute 1/2 to each
// branch and cancel, so no level correction is needed). All arithmetic is
// exact Rational, so the result is bit-identical to the enumeration path on
// any support it can handle.
//
// Design notes (see docs/CONDITIONS.md):
//  * nodes live in one contiguous arena (std::vector) addressed by 32-bit
//    index refs, hash-consed through per-level open-addressing unique
//    subtables (power-of-two, linear probing) — no pointer-chasing buckets
//    on the makeNode/ite hot path. makeNode always knows the level, so a
//    per-level table needs no var in its key and stays small;
//  * `ite` is the single connective; AND/OR/NOT are one-line wrappers. A
//    direct-mapped lossy computed table memoizes (f, g, h) triples; losing
//    an entry only costs a recomputation that re-finds existing nodes, so
//    node numbering stays deterministic;
//  * the variable order is fixed: first-registration order. fromDnf()
//    registers a DNF's support in ascending select-id order before
//    building, which makes conversion deterministic. There is no dynamic
//    reordering: exact probabilities do not depend on the order, and the
//    activation BDDs stay far below the size where sifting would pay.

#include <cstdint>
#include <utility>
#include <vector>

#include "sched/condition.hpp"
#include "support/rational.hpp"

namespace pmsched {

/// Handle to a BDD node inside one BddManager. Refs from different
/// managers must never be mixed (unchecked).
using BddRef = std::uint32_t;

inline constexpr BddRef kBddFalse = 0;
inline constexpr BddRef kBddTrue = 1;
/// Sentinel for "no ref" (empty unique-table slots, refused handles).
inline constexpr BddRef kBddInvalid = static_cast<BddRef>(-1);

class BddManager {
 public:
  BddManager();

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  /// The single-variable function "select == value".
  [[nodiscard]] BddRef literal(NodeId select, bool value);

  /// Shannon if-then-else: f ? g : h. The universal connective.
  [[nodiscard]] BddRef ite(BddRef f, BddRef g, BddRef h);

  [[nodiscard]] BddRef bddAnd(BddRef a, BddRef b) { return ite(a, b, kBddFalse); }
  [[nodiscard]] BddRef bddOr(BddRef a, BddRef b) { return ite(a, kBddTrue, b); }
  [[nodiscard]] BddRef bddNot(BddRef a) { return ite(a, kBddFalse, kBddTrue); }

  /// Convert a DNF (terms need not be normalized: duplicate literals are
  /// collapsed, contradictory terms contribute FALSE). Hash-consing makes
  /// the conversion canonical: equivalent DNFs yield the same ref.
  [[nodiscard]] BddRef fromDnf(const GateDnf& dnf);

  /// Exact P(f) under independent fair selects. Memoized per node for the
  /// manager's lifetime, so repeated queries over a family of conditions
  /// that share structure (e.g. nested gating) cost only the new nodes.
  /// The accumulation runs in 128-bit dyadic arithmetic, so supports far
  /// beyond Rational's 62-bit denominators cannot overflow mid-recursion;
  /// only a FINAL value whose reduced denominator exceeds 2^62 throws —
  /// BudgetExceededError(RationalWidth) carrying the support width, so the
  /// activation analysis can degrade to probabilityApprox() instead of
  /// letting the run die.
  [[nodiscard]] Rational probability(BddRef f);

  /// Bounded-error double estimate of P(f): one bottom-up pass in IEEE
  /// doubles. `error` bounds |value - P(f)| (each node adds at most one
  /// half-ulp rounding; halving is exact), so it grows with the node count,
  /// not the support width — the degradation target for conditions past
  /// probability()'s exact range. Never throws. The value/error pair
  /// depends only on the node structure, which the fixed variable order
  /// makes deterministic.
  struct ApproxProbability {
    double value = 0;
    double error = 0;
  };
  [[nodiscard]] ApproxProbability probabilityApprox(BddRef f);

  /// Distinct selects the function actually depends on, ascending id.
  [[nodiscard]] std::vector<NodeId> support(BddRef f) const;

  /// Pin/unpin: while pinned() the owner promises there are outstanding
  /// refs, and maintenance that would invalidate them (the thread-local
  /// dnfProbability manager's periodic clear) must be skipped.
  void pin() { ++pins_; }
  void unpin() { --pins_; }
  [[nodiscard]] bool pinned() const { return pins_ > 0; }

  /// Bumped by every clear(); lets holders assert their refs' generation.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Node count including the two terminals (diagnostics/tests).
  [[nodiscard]] std::size_t nodeCount() const { return nodes_.size(); }

  /// Cap the node arena (0 = unlimited, the default). Once nodeCount()
  /// would exceed the cap, makeNode throws BudgetExceededError(BddNodes);
  /// consumers catch it at the per-condition boundary and degrade (the
  /// manager stays valid — only the new node is refused).
  void setNodeLimit(std::size_t maxNodes) { nodeLimit_ = maxNodes; }

  /// Drop every node and cache, keeping only the terminals. Invalidates
  /// all outstanding refs — only callers that hold none may use it (the
  /// thread-local manager behind dnfProbability does, between queries,
  /// unless a holder pinned it). Bumps epoch().
  void clear();

 private:
  static constexpr std::uint32_t kTermVar = static_cast<std::uint32_t>(-1);

  struct Node {
    std::uint32_t var;  // index into order_, kTermVar for terminals
    BddRef lo;
    BddRef hi;
  };

  /// Open-addressing unique subtable for one level (variable position).
  /// Slots hold refs (kBddInvalid = empty), keyed by the node's (lo, hi) —
  /// the var is implied by the level. Power-of-two capacity, linear
  /// probing, grown at ~70% load. Entries are only removed wholesale by
  /// clear(), so no tombstones are needed.
  struct Level {
    std::vector<BddRef> slots;
    std::size_t count = 0;
  };

  /// Direct-mapped lossy computed-table entry for ite(f, g, h) -> r.
  /// f == kBddInvalid marks an empty entry.
  struct IteEntry {
    BddRef f = kBddInvalid;
    BddRef g = kBddFalse;
    BddRef h = kBddFalse;
    BddRef r = kBddFalse;
  };

  /// Probabilities are accumulated as exact dyadics num / 2^exp with a
  /// 128-bit numerator (num <= 2^exp since P <= 1, and num is kept odd, so
  /// exp is the reduced denominator width). This is what lifts the old
  /// 62-variable ceiling: only results whose REDUCED denominator exceeds
  /// Rational's 2^62 fail, with a clear diagnostic instead of an
  /// "add/mul overflow" from the middle of the recursion.
  /// exp == kDyadicUnset marks an empty flat-cache slot.
  static constexpr unsigned kDyadicUnset = static_cast<unsigned>(-1);
  struct Dyadic {
    unsigned __int128 num = 0;
    unsigned exp = kDyadicUnset;
  };
  [[nodiscard]] Dyadic probabilityWide(BddRef f);

  /// Hash-consed node constructor; maintains the ROBDD invariants
  /// (lo != hi, child vars strictly below — i.e. numerically above — var).
  [[nodiscard]] BddRef makeNode(std::uint32_t var, BddRef lo, BddRef hi);
  void growLevel(Level& lv);

  /// Grow the direct-mapped computed table with the arena before a public
  /// build (dropping the old entries is fine: recomputation only re-finds
  /// existing nodes).
  void scaleComputed();
  /// The ite recursion behind ite() and fromDnf().
  [[nodiscard]] BddRef iteRec(BddRef f, BddRef g, BddRef h);

  /// The one bottom-up traversal behind probabilityWide and
  /// probabilityApprox: append to `out` every nonterminal reachable from
  /// `root`, children strictly before parents, skipping subgraphs rooted at
  /// nodes for which `done(r)` is true (their value is already cached).
  /// Stamp-based visited marks, so no per-call O(arena) reset.
  template <class Done>
  void collectBottomUp(BddRef root, Done done, std::vector<BddRef>& out);

  /// Variable index of a select, registering it at the end of the order on
  /// first sight.
  [[nodiscard]] std::uint32_t varIndex(NodeId select);

  /// Cofactor of f with respect to variable v (f unchanged when its top
  /// variable is below v).
  [[nodiscard]] BddRef cofactor(BddRef f, std::uint32_t v, bool value) const {
    const Node& n = nodes_[f];
    if (n.var != v) return f;
    return value ? n.hi : n.lo;
  }

  std::vector<Node> nodes_;               // the arena; only clear() shrinks it
  std::vector<Level> levels_;             // one unique subtable per order position
  std::vector<IteEntry> computed_;        // direct-mapped, lossy
  std::vector<Dyadic> probCache_;         // flat, ref-indexed
  std::vector<ApproxProbability> approxCache_;  // flat, ref-indexed; error == 0 = empty
  std::vector<std::uint32_t> varOf_;      // select id -> var index + 1; 0 = unregistered
  std::vector<NodeId> order_;             // var index -> select id

  // Scratch reused across calls: fromDnf's support and term literals,
  // collectBottomUp's stack and the probability passes' node order.
  std::vector<NodeId> supportScratch_;
  std::vector<std::pair<std::uint32_t, bool>> litScratch_;
  std::vector<BddRef> walkStack_;
  std::vector<BddRef> walkOrder_;

  std::vector<std::uint32_t> visitStamp_;  // collectBottomUp marks (stamped)
  std::uint32_t visitTick_ = 0;

  std::size_t computedMisses_ = 0;  // since the last computed_ resize

  std::size_t nodeLimit_ = 0;  // 0 = unlimited
  int pins_ = 0;
  std::uint64_t epoch_ = 0;
};

/// RAII pin on a BddManager (see BddManager::pin).
class BddPin {
 public:
  explicit BddPin(BddManager& m) : m_(&m) { m_->pin(); }
  ~BddPin() {
    if (m_ != nullptr) m_->unpin();
  }
  BddPin(BddPin&& o) noexcept : m_(o.m_) { o.m_ = nullptr; }
  BddPin(const BddPin&) = delete;
  BddPin& operator=(const BddPin&) = delete;
  BddPin& operator=(BddPin&&) = delete;

 private:
  BddManager* m_;
};

}  // namespace pmsched
