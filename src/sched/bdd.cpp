#include "sched/bdd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/diagnostics.hpp"
#include "support/fault_injector.hpp"

namespace pmsched {

namespace {

inline std::uint64_t hashPair(BddRef lo, BddRef hi) {
  std::uint64_t x = (static_cast<std::uint64_t>(lo) << 32) | hi;
  x *= 0x9E3779B97F4A7C15ULL;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 32;
  return x;
}

inline std::uint64_t hashIte(BddRef f, BddRef g, BddRef h) {
  std::uint64_t x = (static_cast<std::uint64_t>(f) << 32) | g;
  x ^= static_cast<std::uint64_t>(h) * 0x9E3779B97F4A7C15ULL;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 32;
  return x;
}

std::atomic<int> g_reorderModeOverride{-1};
std::atomic<std::size_t> g_reorderWatermarkOverride{0};

BddReorderMode envReorderMode() {
  static const BddReorderMode v = [] {
    if (const char* env = std::getenv("PMSCHED_BDD_REORDER")) {
      if (std::string_view(env) == "off") return BddReorderMode::Off;
    }
    return BddReorderMode::Auto;
  }();
  return v;
}

std::size_t envReorderWatermark() {
  static const std::size_t v = [] {
    if (const char* env = std::getenv("PMSCHED_BDD_REORDER_WATERMARK")) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(env, &end, 10);
      if (end != nullptr && *end == '\0' && n > 0) return static_cast<std::size_t>(n);
    }
    return std::size_t{4096};
  }();
  return v;
}

constexpr std::size_t kComputedInitial = std::size_t{1} << 12;
constexpr std::size_t kComputedMax = std::size_t{1} << 20;

/// Sifting aborts a direction once the table has grown past this factor of
/// its size when the variable started moving (Rudell's max-growth guard).
constexpr double kSiftMaxGrowth = 1.2;

}  // namespace

BddReorderMode bddReorderMode() {
  const int o = g_reorderModeOverride.load(std::memory_order_relaxed);
  return o < 0 ? envReorderMode() : static_cast<BddReorderMode>(o);
}

void setBddReorderMode(BddReorderMode mode) {
  g_reorderModeOverride.store(static_cast<int>(mode), std::memory_order_relaxed);
}

std::size_t bddReorderWatermark() {
  const std::size_t o = g_reorderWatermarkOverride.load(std::memory_order_relaxed);
  return o == 0 ? envReorderWatermark() : o;
}

void setBddReorderWatermark(std::size_t nodes) {
  g_reorderWatermarkOverride.store(nodes, std::memory_order_relaxed);
}

BddManager::BddManager() {
  nodes_.push_back(Node{kTermVar, kBddFalse, kBddFalse});  // 0 = FALSE
  nodes_.push_back(Node{kTermVar, kBddTrue, kBddTrue});    // 1 = TRUE
  computed_.assign(kComputedInitial, IteEntry{});
}

void BddManager::clear() {
  nodes_.resize(2);
  levels_.clear();
  std::fill(computed_.begin(), computed_.end(), IteEntry{});
  probCache_.clear();
  approxCache_.clear();
  varOf_.clear();
  order_.clear();
  roots_.clear();
  isRoot_.clear();
  visitStamp_.clear();
  visitTick_ = 0;
  watermark_ = 0;
  ++epoch_;
}

std::size_t BddManager::tableSize() const {
  std::size_t n = 0;
  for (const Level& lv : levels_) n += lv.count;
  return n;
}

void BddManager::growLevel(Level& lv, std::uint32_t var) {
  (void)var;
  const std::size_t cap = lv.slots.empty() ? 16 : lv.slots.size() * 2;
  std::vector<BddRef> old;
  old.swap(lv.slots);
  lv.slots.assign(cap, kBddInvalid);
  const std::size_t mask = cap - 1;
  for (const BddRef r : old) {
    if (r == kBddInvalid) continue;
    std::size_t slot = hashPair(nodes_[r].lo, nodes_[r].hi) & mask;
    while (lv.slots[slot] != kBddInvalid) slot = (slot + 1) & mask;
    lv.slots[slot] = r;
  }
}

void BddManager::insertUnique(BddRef r) {
  const Node& n = nodes_[r];
  Level& lv = levels_[n.var];
  if ((lv.count + 1) * 10 >= lv.slots.size() * 7) growLevel(lv, n.var);
  const std::size_t mask = lv.slots.size() - 1;
  std::size_t slot = hashPair(n.lo, n.hi) & mask;
  while (lv.slots[slot] != kBddInvalid) slot = (slot + 1) & mask;
  lv.slots[slot] = r;
  ++lv.count;
}

BddRef BddManager::makeNode(std::uint32_t var, BddRef lo, BddRef hi) {
  if (lo == hi) return lo;  // redundant test: both branches agree
  Level& lv = levels_[var];
  if ((lv.count + 1) * 10 >= lv.slots.size() * 7) growLevel(lv, var);
  const std::size_t mask = lv.slots.size() - 1;
  std::size_t slot = hashPair(lo, hi) & mask;
  while (lv.slots[slot] != kBddInvalid) {
    const Node& n = nodes_[lv.slots[slot]];
    if (n.lo == lo && n.hi == hi) return lv.slots[slot];
    slot = (slot + 1) & mask;
  }
  fault::point("bdd-node");
  if (nodeLimit_ != 0 && nodes_.size() >= nodeLimit_)
    throw BudgetExceededError(BudgetKind::BddNodes,
                              "BDD arena at its node cap (" + std::to_string(nodes_.size()) +
                                  " nodes)",
                              nodes_.size());
  const BddRef r = static_cast<BddRef>(nodes_.size());
  nodes_.push_back(Node{var, lo, hi});
  lv.slots[slot] = r;
  ++lv.count;
  return r;
}

BddRef BddManager::makeNodeRaw(std::uint32_t var, BddRef lo, BddRef hi) {
  // Swap-internal twin of makeNode: the cap was pre-checked for the whole
  // level swap and the fault point sits at the swap boundary, so this
  // never throws and swaps stay atomic.
  if (lo == hi) return lo;
  Level& lv = levels_[var];
  if ((lv.count + 1) * 10 >= lv.slots.size() * 7) growLevel(lv, var);
  const std::size_t mask = lv.slots.size() - 1;
  std::size_t slot = hashPair(lo, hi) & mask;
  while (lv.slots[slot] != kBddInvalid) {
    const Node& n = nodes_[lv.slots[slot]];
    if (n.lo == lo && n.hi == hi) return lv.slots[slot];
    slot = (slot + 1) & mask;
  }
  const BddRef r = static_cast<BddRef>(nodes_.size());
  nodes_.push_back(Node{var, lo, hi});
  lv.slots[slot] = r;
  ++lv.count;
  return r;
}

void BddManager::noteRoot(BddRef r) {
  if (r <= kBddTrue) return;
  if (isRoot_.size() < nodes_.size()) isRoot_.resize(nodes_.size(), 0);
  if (isRoot_[r] != 0) return;
  isRoot_[r] = 1;
  roots_.push_back(r);
}

std::uint32_t BddManager::varIndex(NodeId select) {
  const auto [it, inserted] = varOf_.try_emplace(select, static_cast<std::uint32_t>(order_.size()));
  if (inserted) {
    order_.push_back(select);
    levels_.emplace_back();
  }
  return it->second;
}

BddRef BddManager::literal(NodeId select, bool value) {
  const std::uint32_t v = varIndex(select);
  const BddRef r = value ? makeNode(v, kBddFalse, kBddTrue) : makeNode(v, kBddTrue, kBddFalse);
  noteRoot(r);
  return r;
}

BddRef BddManager::iteRec(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == kBddTrue) return g;
  if (f == kBddFalse) return h;
  if (g == h) return g;
  if (g == kBddTrue && h == kBddFalse) return f;

  {
    const IteEntry& e = computed_[hashIte(f, g, h) & (computed_.size() - 1)];
    if (e.f == f && e.g == g && e.h == h) return e.r;
  }
  // A direct-mapped cache has one pathological failure mode: two live
  // subproblems sharing a slot evict each other and recursion re-expands
  // exponentially (XOR chains hit this). Growing under miss pressure
  // re-hashes the keys apart and restores near-linear cost; dropping the
  // old entries is deterministic (recomputation re-finds existing nodes).
  if (++computedMisses_ >= computed_.size() * 4 && computed_.size() < kComputedMax) {
    computed_.assign(computed_.size() * 2, IteEntry{});
    computedMisses_ = 0;
  }

  const std::uint32_t v = std::min({nodes_[f].var, nodes_[g].var, nodes_[h].var});
  const BddRef lo = iteRec(cofactor(f, v, false), cofactor(g, v, false), cofactor(h, v, false));
  const BddRef hi = iteRec(cofactor(f, v, true), cofactor(g, v, true), cofactor(h, v, true));
  const BddRef r = makeNode(v, lo, hi);
  // Re-probe: the table may have grown during the recursion.
  computed_[hashIte(f, g, h) & (computed_.size() - 1)] = IteEntry{f, g, h, r};
  return r;
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Scale the direct-mapped computed table with the arena (dropping the old
  // entries is fine: recomputation only re-finds existing nodes).
  if (computed_.size() < kComputedMax && nodes_.size() > computed_.size())
    computed_.assign(std::max(kComputedInitial, std::bit_ceil(nodes_.size())), IteEntry{});
  const BddRef r = iteRec(f, g, h);
  noteRoot(r);
  return r;
}

BddRef BddManager::fromDnf(const GateDnf& dnf) {
  maybeReorder();
  if (computed_.size() < kComputedMax && nodes_.size() > computed_.size())
    computed_.assign(std::max(kComputedInitial, std::bit_ceil(nodes_.size())), IteEntry{});

  // Register the support ascending so the variable order (and therefore
  // the node ids a given formula produces) is deterministic.
  for (const NodeId s : dnfSupport(dnf)) (void)varIndex(s);

  BddRef acc = kBddFalse;
  std::vector<std::pair<std::uint32_t, bool>> lits;
  for (const GateTerm& term : dnf) {
    lits.clear();
    lits.reserve(term.size());
    for (const GateLiteral& l : term) lits.emplace_back(varIndex(l.select), l.value);
    std::sort(lits.begin(), lits.end());
    bool contradictory = false;
    std::size_t out = 0;
    for (std::size_t i = 0; i < lits.size(); ++i) {
      if (out > 0 && lits[out - 1].first == lits[i].first) {
        if (lits[out - 1].second != lits[i].second) {
          contradictory = true;  // same select demanded both ways
          break;
        }
        continue;  // duplicate literal
      }
      lits[out++] = lits[i];
    }
    if (contradictory) continue;
    lits.resize(out);
    // A conjunction over distinct variables is a single chain; building it
    // bottom-up (deepest variable first) needs no ite at all.
    BddRef t = kBddTrue;
    for (auto it = lits.rbegin(); it != lits.rend(); ++it)
      t = it->second ? makeNode(it->first, kBddFalse, t) : makeNode(it->first, t, kBddFalse);
    acc = iteRec(acc, kBddTrue, t);  // acc OR t
    if (acc == kBddTrue) break;      // tautology: no later term can change it
  }
  noteRoot(acc);
  return acc;
}

template <class Done>
void BddManager::collectBottomUp(std::span<const BddRef> roots, Done done, std::vector<BddRef>& out) {
  if (visitStamp_.size() < nodes_.size()) visitStamp_.resize(nodes_.size(), 0);
  if (visitTick_ > std::numeric_limits<std::uint32_t>::max() - 4) {
    std::fill(visitStamp_.begin(), visitStamp_.end(), 0);
    visitTick_ = 0;
  }
  const std::uint32_t tExpand = visitTick_ + 1;
  const std::uint32_t tEmit = visitTick_ + 2;
  visitTick_ += 2;

  std::vector<BddRef> stack;
  for (const BddRef root : roots)
    if (root > kBddTrue && visitStamp_[root] < tExpand && !done(root)) stack.push_back(root);
  while (!stack.empty()) {
    const BddRef r = stack.back();
    if (visitStamp_[r] == tEmit) {  // duplicate stack entry, already emitted
      stack.pop_back();
      continue;
    }
    if (visitStamp_[r] == tExpand) {  // children done: emit
      visitStamp_[r] = tEmit;
      out.push_back(r);
      stack.pop_back();
      continue;
    }
    visitStamp_[r] = tExpand;
    const Node& n = nodes_[r];
    for (const BddRef c : {n.lo, n.hi})
      if (c > kBddTrue && visitStamp_[c] < tExpand && !done(c)) stack.push_back(c);
  }
}

BddManager::Dyadic BddManager::probabilityWide(BddRef f) {
  if (f == kBddFalse) return Dyadic{0, 0};
  if (f == kBddTrue) return Dyadic{1, 0};
  if (probCache_.size() < nodes_.size()) probCache_.resize(nodes_.size());
  if (probCache_[f].exp != kDyadicUnset) return probCache_[f];

  std::vector<BddRef> topo;
  const BddRef roots[1] = {f};
  collectBottomUp(std::span<const BddRef>(roots),
                  [&](BddRef r) { return probCache_[r].exp != kDyadicUnset; }, topo);
  const auto value = [&](BddRef r) -> Dyadic {
    if (r == kBddFalse) return Dyadic{0, 0};
    if (r == kBddTrue) return Dyadic{1, 0};
    return probCache_[r];
  };
  // Each reachable node is computed once, children before parents.
  // Variables absent between a node and its child need no correction:
  // they contribute the same factor to both branches.
  for (const BddRef r : topo) {
    const Node& n = nodes_[r];
    const Dyadic lo = value(n.lo);
    const Dyadic hi = value(n.hi);
    // (lo + hi) / 2 in exact dyadic arithmetic: align, add, halve, reduce.
    const unsigned e = std::max(lo.exp, hi.exp);
    if (e >= 126)
      throw BudgetExceededError(
          BudgetKind::RationalWidth,
          "BddManager::probability: dyadic accumulation needs more than 126 "
          "fractional bits — condition support is too wide for exact arithmetic",
          e);
    Dyadic x{(lo.num << (e - lo.exp)) + (hi.num << (e - hi.exp)), e + 1};
    while (x.num != 0 && (x.num & 1) == 0) {
      x.num >>= 1;
      --x.exp;
    }
    if (x.num == 0) x.exp = 0;
    probCache_[r] = x;
  }
  return probCache_[f];
}

Rational BddManager::probability(BddRef f) {
  // Either failure mode — a mid-accumulation 126-bit dyadic or a reduced
  // denominator past Rational's 62 bits — is the same family of error to a
  // caller; rethrow both with the SUPPORT WIDTH as the detail, which is the
  // quantity the degradation path reports in its error bar diagnostics.
  Dyadic d{0, 0};
  try {
    d = probabilityWide(f);
  } catch (const BudgetExceededError& e) {
    throw BudgetExceededError(BudgetKind::RationalWidth,
                              std::string(e.what()) + " (support width " +
                                  std::to_string(support(f).size()) + ")",
                              support(f).size());
  }
  // Reduced: num odd (or zero), so exp is the true denominator width.
  if (d.exp > 62)
    throw BudgetExceededError(
        BudgetKind::RationalWidth,
        "BddManager::probability: exact value has denominator 2^" + std::to_string(d.exp) +
            ", beyond the 62-bit Rational limit (support width " +
            std::to_string(support(f).size()) + ")",
        support(f).size());
  return Rational{static_cast<std::int64_t>(d.num), std::int64_t{1} << d.exp};
}

BddManager::ApproxProbability BddManager::probabilityApprox(BddRef f) {
  if (f == kBddFalse) return {0.0, 0.0};
  if (f == kBddTrue) return {1.0, 0.0};
  if (approxCache_.size() < nodes_.size()) approxCache_.resize(nodes_.size());
  if (approxCache_[f].error > 0) return approxCache_[f];

  std::vector<BddRef> topo;
  const BddRef roots[1] = {f};
  collectBottomUp(std::span<const BddRef>(roots),
                  [&](BddRef r) { return approxCache_[r].error > 0; }, topo);
  const auto value = [&](BddRef r) -> ApproxProbability {
    if (r == kBddFalse) return {0.0, 0.0};
    if (r == kBddTrue) return {1.0, 0.0};
    return approxCache_[r];
  };
  // (lo + hi) / 2: the halving is exact in binary floating point; the
  // addition rounds once, bounded by half an ulp of a value <= 2, i.e.
  // 2^-53 absolute. Child errors average, so the bound only grows along
  // the (node-count-bounded) additions, never exponentially. Every cached
  // entry has error >= 2^-53, so error == 0 doubles as the empty mark.
  for (const BddRef r : topo) {
    const Node& n = nodes_[r];
    const ApproxProbability lo = value(n.lo);
    const ApproxProbability hi = value(n.hi);
    approxCache_[r] = ApproxProbability{(lo.value + hi.value) / 2.0,
                                        (lo.error + hi.error) / 2.0 + 0x1p-53};
  }
  return approxCache_[f];
}

void BddManager::registerVariables(std::span<const NodeId> selects) {
  for (const NodeId s : selects) (void)varIndex(s);
}

std::vector<NodeId> BddManager::support(BddRef f) const {
  std::vector<NodeId> out;
  std::vector<BddRef> stack{f};
  std::vector<bool> seen(nodes_.size(), false);
  while (!stack.empty()) {
    const BddRef r = stack.back();
    stack.pop_back();
    if (r <= kBddTrue || seen[r]) continue;
    seen[r] = true;
    out.push_back(order_[nodes_[r].var]);
    stack.push_back(nodes_[r].lo);
    stack.push_back(nodes_[r].hi);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void BddManager::swapLevels(std::uint32_t i) {
  Level& up = levels_[i];
  Level& dn = levels_[i + 1];

  // Snapshot both levels (sorted for a deterministic rebuild) and plan the
  // rewrites BEFORE touching anything, so a cap trip or injected fault
  // leaves the manager untouched (swaps are atomic).
  std::vector<BddRef> uList;
  uList.reserve(up.count);
  for (const BddRef r : up.slots)
    if (r != kBddInvalid) uList.push_back(r);
  std::sort(uList.begin(), uList.end());
  std::vector<BddRef> vList;
  vList.reserve(dn.count);
  for (const BddRef r : dn.slots)
    if (r != kBddInvalid) vList.push_back(r);
  std::sort(vList.begin(), vList.end());

  const std::uint32_t vi = i + 1;
  struct Rewrite {
    BddRef u, f00, f01, f10, f11;
  };
  std::vector<Rewrite> rewrites;
  std::vector<BddRef> keep;
  for (const BddRef u : uList) {
    const Node n = nodes_[u];
    if (nodes_[n.lo].var != vi && nodes_[n.hi].var != vi) {
      keep.push_back(u);
      continue;
    }
    rewrites.push_back(Rewrite{u, cofactor(n.lo, vi, false), cofactor(n.lo, vi, true),
                               cofactor(n.hi, vi, false), cofactor(n.hi, vi, true)});
  }

  fault::point("bdd-sift");
  if (nodeLimit_ != 0 && nodes_.size() + 2 * rewrites.size() > nodeLimit_)
    throw BudgetExceededError(BudgetKind::BddNodes,
                              "BDD sift: swapping levels " + std::to_string(i) + "/" +
                                  std::to_string(i + 1) + " could exceed the node cap (" +
                                  std::to_string(nodes_.size()) + " nodes)",
                              nodes_.size());

  std::swap(order_[i], order_[i + 1]);
  varOf_[order_[i]] = i;
  varOf_[order_[i + 1]] = i + 1;
  std::fill(up.slots.begin(), up.slots.end(), kBddInvalid);
  up.count = 0;
  std::fill(dn.slots.begin(), dn.slots.end(), kBddInvalid);
  dn.count = 0;

  // Former level-i+1 nodes keep their function; only the position label
  // moves. Former level-i nodes that never touch level i+1 likewise.
  for (const BddRef v : vList) {
    nodes_[v].var = i;
    insertUnique(v);
  }
  for (const BddRef u : keep) {
    nodes_[u].var = i + 1;
    insertUnique(u);
  }
  // Nodes that do touch the swapped variable are rewritten IN PLACE around
  // the new top variable, so their refs keep denoting the same function:
  //   f = A ? f1 : f0  becomes  f = B ? (A ? f11 : f01) : (A ? f10 : f00).
  // The rewritten triple cannot collide with any relabeled node (distinct
  // functions had distinct nodes before the swap, and the swap preserves
  // both), so insertion is always fresh.
  for (const Rewrite& w : rewrites) {
    const BddRef newLo = makeNodeRaw(i + 1, w.f00, w.f10);
    const BddRef newHi = makeNodeRaw(i + 1, w.f01, w.f11);
    nodes_[w.u] = Node{i, newLo, newHi};
    insertUnique(w.u);
  }
}

void BddManager::sift() {
  if (order_.size() < 2) return;
  ++reorders_;

  // The approx cache is node-structure dependent (its error bars track the
  // DAG shape); the computed table may hold entries whose operands or
  // result are garbage about to be dropped from the unique tables. Flush
  // both. The exact probability cache survives: a live ref keeps its
  // function, so its dyadic stays correct under any order.
  std::fill(computed_.begin(), computed_.end(), IteEntry{});
  approxCache_.clear();

  // Liveness = reachable from any ref a public call returned. Everything
  // else (intermediate ite results nobody can hold, and the rewrite helpers
  // swapLevels mints) is dropped from the unique tables so the size metric
  // the sift optimizes reflects reality; the arena itself keeps the slots,
  // refs are never reused. Re-marking is repeated after every variable's
  // journey — each journey strands helper nodes, and letting them compound
  // across variables inflates every later journey's baseline (and its
  // growth cap with it). Safe mid-pass because computed_ is already flushed
  // and no ite runs during the sift, so a dropped ref can never resurface.
  std::vector<std::vector<BddRef>> byLevel(order_.size());
  const auto remark = [&] {
    std::vector<BddRef> live;
    collectBottomUp(std::span<const BddRef>(roots_), [](BddRef) { return false; }, live);
    for (auto& lvNodes : byLevel) lvNodes.clear();
    for (const BddRef r : live) byLevel[nodes_[r].var].push_back(r);
    for (auto& lvNodes : byLevel) std::sort(lvNodes.begin(), lvNodes.end());
    for (std::uint32_t v = 0; v < levels_.size(); ++v) {
      Level& lv = levels_[v];
      std::fill(lv.slots.begin(), lv.slots.end(), kBddInvalid);
      lv.count = 0;
      for (const BddRef r : byLevel[v]) insertUnique(r);
    }
  };
  remark();

  // Sift the most populated levels first: that is where reordering pays.
  std::vector<std::uint32_t> positions(order_.size());
  std::iota(positions.begin(), positions.end(), 0u);
  std::stable_sort(positions.begin(), positions.end(), [&](std::uint32_t a, std::uint32_t b) {
    return byLevel[a].size() > byLevel[b].size();
  });
  std::vector<NodeId> bySelect;
  bySelect.reserve(positions.size());
  for (const std::uint32_t p : positions) bySelect.push_back(order_[p]);

  const std::uint32_t top = 0;
  const std::uint32_t bottom = static_cast<std::uint32_t>(order_.size()) - 1;
  // Swaps never shrink the arena (dead slots are kept so refs stay stable),
  // so a pass that keeps exploring bad orders grows it monotonically. Budget
  // the whole pass at ~3x the starting arena and stop early rather than let
  // a single reorder balloon memory.
  const std::size_t arenaBudget = nodes_.size() * 3 + 4096;
  try {
    for (const NodeId sel : bySelect) {
      if (nodes_.size() > arenaBudget) break;
      const std::size_t startSize = tableSize();
      const std::size_t growthCap =
          static_cast<std::size_t>(static_cast<double>(startSize) * kSiftMaxGrowth) + 2;
      std::size_t best = startSize;
      std::uint32_t bestPos = varOf_.at(sel);
      // Down to the bottom...
      for (std::uint32_t p = varOf_.at(sel); p < bottom; ++p) {
        swapLevels(p);
        const std::size_t s = tableSize();
        if (s < best) {
          best = s;
          bestPos = p + 1;
        }
        if (s > growthCap) break;
      }
      // ...back up to the top...
      for (std::uint32_t p = varOf_.at(sel); p > top; --p) {
        swapLevels(p - 1);
        const std::size_t s = tableSize();
        if (s < best) {
          best = s;
          bestPos = p - 1;
        }
        if (s > growthCap) break;
      }
      // ...and park at the best position seen.
      while (varOf_.at(sel) < bestPos) swapLevels(varOf_.at(sel));
      while (varOf_.at(sel) > bestPos) swapLevels(varOf_.at(sel) - 1);
      remark();
    }
  } catch (const BudgetExceededError&) {
    // A cap trip between (atomic) swaps: stop where we are. The manager is
    // canonical for whatever order it reached; callers lose nothing but
    // the rest of the optimization.
    ++reorderAborts_;
  } catch (const FaultInjectedError&) {
    ++reorderAborts_;
  }
}

void BddManager::maybeReorder() {
  if (bddReorderMode() == BddReorderMode::Off) return;
  if (watermark_ == 0) watermark_ = bddReorderWatermark();
  if (nodes_.size() < watermark_) return;
  sift();
  // Rearm: the arena only grows (sifting drags garbage), so the next
  // trigger fires at twice whatever we ended at.
  watermark_ = std::max(bddReorderWatermark(), nodes_.size() * 2);
}

}  // namespace pmsched
