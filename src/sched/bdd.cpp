#include "sched/bdd.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

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

constexpr std::size_t kComputedInitial = std::size_t{1} << 12;
constexpr std::size_t kComputedMax = std::size_t{1} << 20;

}  // namespace

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
  visitStamp_.clear();
  visitTick_ = 0;
  ++epoch_;
}

void BddManager::growLevel(Level& lv) {
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

BddRef BddManager::makeNode(std::uint32_t var, BddRef lo, BddRef hi) {
  if (lo == hi) return lo;  // redundant test: both branches agree
  Level& lv = levels_[var];
  if ((lv.count + 1) * 10 >= lv.slots.size() * 7) growLevel(lv);
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

std::uint32_t BddManager::varIndex(NodeId select) {
  if (select >= varOf_.size()) varOf_.resize(std::size_t{select} + 1, 0);
  std::uint32_t& slot = varOf_[select];
  if (slot == 0) {
    order_.push_back(select);
    levels_.emplace_back();
    slot = static_cast<std::uint32_t>(order_.size());
  }
  return slot - 1;
}

BddRef BddManager::literal(NodeId select, bool value) {
  const std::uint32_t v = varIndex(select);
  return value ? makeNode(v, kBddFalse, kBddTrue) : makeNode(v, kBddTrue, kBddFalse);
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

void BddManager::scaleComputed() {
  if (computed_.size() < kComputedMax && nodes_.size() > computed_.size())
    computed_.assign(std::max(kComputedInitial, std::bit_ceil(nodes_.size())), IteEntry{});
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  scaleComputed();
  return iteRec(f, g, h);
}

BddRef BddManager::fromDnf(const GateDnf& dnf) {
  scaleComputed();

  // Register the support ascending so the variable order (and therefore
  // the node ids a given formula produces) is deterministic.
  std::vector<NodeId>& support = supportScratch_;
  support.clear();
  for (const GateTerm& term : dnf)
    for (const GateLiteral& lit : term) support.push_back(lit.select);
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  for (const NodeId s : support) (void)varIndex(s);

  BddRef acc = kBddFalse;
  std::vector<std::pair<std::uint32_t, bool>>& lits = litScratch_;
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
  return acc;
}

template <class Done>
void BddManager::collectBottomUp(BddRef root, Done done, std::vector<BddRef>& out) {
  if (visitStamp_.size() < nodes_.size()) visitStamp_.resize(nodes_.size(), 0);
  if (visitTick_ > std::numeric_limits<std::uint32_t>::max() - 4) {
    std::fill(visitStamp_.begin(), visitStamp_.end(), 0);
    visitTick_ = 0;
  }
  const std::uint32_t tExpand = visitTick_ + 1;
  const std::uint32_t tEmit = visitTick_ + 2;
  visitTick_ += 2;

  std::vector<BddRef>& stack = walkStack_;
  stack.clear();
  if (root > kBddTrue && !done(root)) stack.push_back(root);
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

  std::vector<BddRef>& topo = walkOrder_;
  topo.clear();
  collectBottomUp(f, [&](BddRef r) { return probCache_[r].exp != kDyadicUnset; }, topo);
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

  std::vector<BddRef>& topo = walkOrder_;
  topo.clear();
  collectBottomUp(f, [&](BddRef r) { return approxCache_[r].error > 0; }, topo);
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

}  // namespace pmsched
