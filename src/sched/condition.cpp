#include "sched/condition.hpp"

#include <algorithm>

#include "sched/bdd.hpp"
#include "support/fault_injector.hpp"

namespace pmsched {

bool normalizeTerm(GateTerm& term) {
  std::sort(term.begin(), term.end());
  for (std::size_t i = 1; i < term.size(); ++i) {
    if (term[i].select == term[i - 1].select) {
      if (term[i].value != term[i - 1].value) return false;  // contradiction
    }
  }
  term.erase(std::unique(term.begin(), term.end()), term.end());
  return true;
}

bool conjoinTerms(const GateTerm& a, const GateTerm& b, GateTerm& out) {
  out = a;
  out.insert(out.end(), b.begin(), b.end());
  return normalizeTerm(out);
}

// ---------------------------------------------------------------------------
// Interned DNF engine.
//
// The shared-gating pass calls simplifyDnf/andDnf once per consumer of every
// candidate node, so DNF churn dominates its profile. The engine below
// replaces the vector-of-vector-of-struct representation inside those
// operations with interned terms:
//
//  * a literal is one 64-bit word, (select << 1) | value, so a normalized
//    term is a sorted flat array and term comparison is a word-wise
//    lexicographic compare (identical ordering to GateTerm's operator<=>);
//  * terms are interned in a pool (hash table over a shared literal
//    arena): content-equal terms get the same TermId, making term equality
//    O(1) and the complementary-pair merge a hash lookup (flip one
//    literal, probe the pool) instead of an O(terms) scan. The free
//    functions below run on a thread-local DnfEngine; passes that keep
//    handles alive across calls (shared gating) own their engine instance;
//  * every term carries a 64-bit signature (a bloom filter of its literals);
//    "a subsumes b" requires sig(a) ⊆ sig(b), which rejects almost every
//    candidate pair before the literal-level std::includes runs.
//
// The simplification *semantics* deliberately replicate the pre-interning
// implementation (kept as the reference in tests/condition_reference.hpp)
// step for step — same one-merge-per-iteration schedule, same subsumption
// filter — so the fast engine is bit-identical to it; property tests
// assert both structural equality and probability preservation on random
// DNFs.
//
// One genuine behavioural change, applied to BOTH paths: the original
// subsumption filter dropped *both* copies of a duplicated term (each
// subsumes the other), so a complementary-pair merge whose result already
// existed in the cover — e.g. (a) | (a & s) | (a & !s) — collapsed to
// FALSE, silently deactivating a unit that is needed with probability 1/2.
// Equal terms now keep their first copy (tests/test_condition.cpp holds the
// regression).
// ---------------------------------------------------------------------------

namespace {

using Lit = std::uint64_t;

inline Lit encodeLit(const GateLiteral& l) {
  return (static_cast<Lit>(l.select) << 1) | (l.value ? 1U : 0U);
}

inline GateLiteral decodeLit(Lit e) {
  return GateLiteral{static_cast<NodeId>(e >> 1), (e & 1U) != 0};
}

inline std::uint64_t litSigBit(Lit e) {
  return std::uint64_t{1} << ((e * 0x9E3779B97F4A7C15ULL) >> 58);
}

inline std::uint64_t hashLits(std::span<const Lit> lits) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const Lit e : lits) {
    h ^= e;
    h *= 0x100000001B3ULL;
    h ^= h >> 29;
  }
  return h;
}

/// Interning pool: terms live in one flat literal arena.
class TermPool {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = static_cast<Id>(-1);

  [[nodiscard]] std::span<const Lit> lits(Id id) const {
    const Ref& r = refs_[id];
    return {arena_.data() + r.offset, r.len};
  }
  [[nodiscard]] std::uint64_t sig(Id id) const { return refs_[id].sig; }
  [[nodiscard]] std::uint32_t size(Id id) const { return refs_[id].len; }

  /// Id of an already-interned term with this content; kNone if absent.
  [[nodiscard]] Id find(std::span<const Lit> sorted) const {
    if (slots_.empty()) return kNone;
    return slots_[probe(sorted, hashLits(sorted))];
  }

  /// Intern a normalized (sorted, deduped, contradiction-free) term.
  [[nodiscard]] Id intern(std::span<const Lit> sorted) {
    const std::uint64_t hash = hashLits(sorted);
    if (!slots_.empty()) {
      const Id found = slots_[probe(sorted, hash)];
      if (found != kNone) return found;
    }
    fault::point("dnf-intern");
    if ((refs_.size() + 1) * 2 > slots_.size()) grow();
    Ref r;
    r.offset = static_cast<std::uint32_t>(arena_.size());
    r.len = static_cast<std::uint32_t>(sorted.size());
    r.sig = 0;
    for (const Lit e : sorted) r.sig |= litSigBit(e);
    r.hash = hash;
    arena_.insert(arena_.end(), sorted.begin(), sorted.end());
    const Id id = static_cast<Id>(refs_.size());
    refs_.push_back(r);
    slots_[probe(sorted, hash)] = id;
    return id;
  }

  /// Lexicographic content order; identical to GateTerm's operator<.
  [[nodiscard]] bool less(Id a, Id b) const {
    const std::span<const Lit> la = lits(a);
    const std::span<const Lit> lb = lits(b);
    return std::lexicographical_compare(la.begin(), la.end(), lb.begin(), lb.end());
  }

  [[nodiscard]] bool lessThanLits(Id a, std::span<const Lit> lb) const {
    const std::span<const Lit> la = lits(a);
    return std::lexicographical_compare(la.begin(), la.end(), lb.begin(), lb.end());
  }

  /// Ids never escape a single public entry point, so the pool may be
  /// reset between them once the arena outgrows its cap.
  void maybeTrim() {
    if (arena_.size() < kArenaCap) return;
    arena_.clear();
    refs_.clear();
    slots_.clear();
  }

  [[nodiscard]] std::size_t arenaLiterals() const { return arena_.size(); }

 private:
  static constexpr std::size_t kArenaCap = std::size_t{1} << 22;  // 32 MiB of literals

  struct Ref {
    std::uint32_t offset;
    std::uint32_t len;
    std::uint64_t sig;
    std::uint64_t hash;  // hashLits of the content
  };

  /// The slot holding the term with this content, or the empty slot where
  /// it would go (linear probing; the table is at most half full).
  [[nodiscard]] std::size_t probe(std::span<const Lit> sorted, std::uint64_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    while (slots_[slot] != kNone &&
           (refs_[slots_[slot]].hash != hash || !equals(slots_[slot], sorted)))
      slot = (slot + 1) & mask;
    return slot;
  }

  void grow() {
    slots_.assign(std::max<std::size_t>(64, slots_.size() * 2), kNone);
    const std::size_t mask = slots_.size() - 1;
    for (Id id = 0; id < refs_.size(); ++id) {
      std::size_t slot = refs_[id].hash & mask;
      while (slots_[slot] != kNone) slot = (slot + 1) & mask;
      slots_[slot] = id;
    }
  }

  [[nodiscard]] bool equals(Id id, std::span<const Lit> sorted) const {
    const std::span<const Lit> l = lits(id);
    return l.size() == sorted.size() && std::equal(l.begin(), l.end(), sorted.begin());
  }

  std::vector<Lit> arena_;
  std::vector<Ref> refs_;
  std::vector<Id> slots_;  // open-addressing index over refs_; power-of-two size
};

/// Encode + single-pass normalize (sort, dedupe, drop contradictions) one
/// GateTerm into `buf`; false when the term is contradictory.
bool encodeTerm(const GateTerm& term, std::vector<Lit>& buf) {
  buf.clear();
  buf.reserve(term.size());
  for (const GateLiteral& l : term) buf.push_back(encodeLit(l));
  std::sort(buf.begin(), buf.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (out > 0 && (buf[out - 1] >> 1) == (buf[i] >> 1)) {
      if (buf[out - 1] != buf[i]) return false;  // contradiction
      continue;                                  // duplicate
    }
    buf[out++] = buf[i];
  }
  buf.resize(out);
  return true;
}

void sortUniqueIds(const TermPool& pool, std::vector<TermPool::Id>& ids) {
  std::sort(ids.begin(), ids.end(), [&pool](TermPool::Id a, TermPool::Id b) {
    return a != b && pool.less(a, b);
  });
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/// Merge the first complementary pair in the reference's (i, j) order:
/// smallest i, then smallest j > i, such that term j equals term i with one
/// literal's polarity flipped. Applies the merge (erase both, append the
/// common remainder) and returns true.
bool mergeFirstPair(TermPool& pool, std::vector<TermPool::Id>& ids, std::vector<Lit>& buf) {
  if (ids.size() < 2) return false;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::span<const Lit> lits = pool.lits(ids[i]);
    std::size_t bestJ = ids.size();
    std::size_t flipK = 0;
    for (std::size_t k = 0; k < lits.size(); ++k) {
      buf.assign(lits.begin(), lits.end());
      buf[k] ^= 1U;  // flip the polarity; sortedness is preserved
      const TermPool::Id fid = pool.find(buf);
      if (fid == TermPool::kNone) continue;
      // ids is sorted by content, so the flip's position is a binary search.
      const auto it = std::lower_bound(
          ids.begin(), ids.end(), std::span<const Lit>(buf),
          [&pool](TermPool::Id a, std::span<const Lit> lb) { return pool.lessThanLits(a, lb); });
      if (it == ids.end() || *it != fid) continue;  // interned but not present here
      const std::size_t j = static_cast<std::size_t>(it - ids.begin());
      if (j > i && j < bestJ) {
        bestJ = j;
        flipK = k;
      }
    }
    if (bestJ < ids.size()) {
      buf.assign(lits.begin(), lits.end());
      buf.erase(buf.begin() + static_cast<std::ptrdiff_t>(flipK));
      const TermPool::Id merged = pool.intern(buf);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(bestJ));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));
      ids.push_back(merged);
      return true;
    }
  }
  return false;
}

/// Drop every term that another term subsumes (is a subset of), keeping the
/// first copy of content-equal duplicates. Signature containment rejects
/// non-subset pairs in O(1) before the literal-level check. `kept` is
/// scratch.
bool dropSubsumed(const TermPool& pool, std::vector<TermPool::Id>& ids,
                  std::vector<TermPool::Id>& kept) {
  const std::size_t n = ids.size();
  if (n < 2) return false;
  kept.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t sigI = pool.sig(ids[i]);
    bool redundant = false;
    for (std::size_t j = 0; j < n && !redundant; ++j) {
      if (j == i) continue;
      if (ids[j] == ids[i]) {
        redundant = j < i;  // keep the first of equal terms
        continue;
      }
      if (pool.size(ids[j]) >= pool.size(ids[i])) continue;  // strict subset only
      const std::uint64_t sigJ = pool.sig(ids[j]);
      if ((sigJ & ~sigI) != 0) continue;
      const std::span<const Lit> lj = pool.lits(ids[j]);
      const std::span<const Lit> li = pool.lits(ids[i]);
      redundant = std::includes(li.begin(), li.end(), lj.begin(), lj.end());
    }
    if (!redundant) kept.push_back(ids[i]);
  }
  if (kept.size() == n) return false;
  ids.swap(kept);
  return true;
}

/// The reference loop on interned ids: per iteration sort+dedupe, merge one
/// complementary pair, filter subsumed terms; repeat until stable. `buf`
/// and `kept` are scratch.
void simplifyIds(TermPool& pool, std::vector<TermPool::Id>& ids, std::vector<Lit>& buf,
                 std::vector<TermPool::Id>& kept) {
  bool changed = true;
  while (changed) {
    changed = false;
    sortUniqueIds(pool, ids);
    if (mergeFirstPair(pool, ids, buf)) changed = true;
    if (dropSubsumed(pool, ids, kept)) changed = true;
  }
}

GateDnf decodeIds(const TermPool& pool, const std::vector<TermPool::Id>& ids) {
  GateDnf out;
  out.reserve(ids.size());
  for (const TermPool::Id id : ids) {
    GateTerm term;
    const std::span<const Lit> lits = pool.lits(id);
    term.reserve(lits.size());
    for (const Lit e : lits) term.push_back(decodeLit(e));
    out.push_back(std::move(term));
  }
  return out;
}

}  // namespace

struct DnfEngine::Impl {
  TermPool pool;
  // Scratch reused across calls.
  std::vector<Lit> buf;
  std::vector<Lit> outer;
  std::vector<TermPool::Id> kept;
};

DnfEngine::DnfEngine() : impl_(std::make_unique<Impl>()) {}
DnfEngine::~DnfEngine() = default;

std::vector<DnfEngine::TermId> DnfEngine::encode(const GateDnf& dnf) {
  std::vector<TermId> ids;
  ids.reserve(dnf.size());
  for (const GateTerm& term : dnf)
    if (encodeTerm(term, impl_->buf)) ids.push_back(impl_->pool.intern(impl_->buf));
  return ids;
}

DnfEngine::Dnf DnfEngine::simplify(std::vector<TermId> terms) {
  simplifyIds(impl_->pool, terms, impl_->buf, impl_->kept);
  return Dnf{std::move(terms)};
}

DnfEngine::TermId DnfEngine::internTerm(const GateTerm& term) {
  const bool consistent = encodeTerm(term, impl_->buf);
  if (!consistent) throw SynthesisError("DnfEngine::internTerm: contradictory term");
  return impl_->pool.intern(impl_->buf);
}

void DnfEngine::conjoinInto(std::span<const TermId> a, std::span<const TermId> b, Dnf& out) {
  TermPool& pool = impl_->pool;
  std::vector<Lit>& buf = impl_->buf;

  // Cross product: merge two sorted literal arrays, dropping contradictory
  // combinations (same select, opposite polarity). The outer term is
  // copied out of the arena because intern() below may reallocate it.
  std::vector<TermId>& ids = out.terms;
  ids.clear();
  ids.reserve(a.size() * b.size());
  std::vector<Lit>& ta = impl_->outer;
  for (const TermId ia : a) {
    const std::span<const Lit> la = pool.lits(ia);
    ta.assign(la.begin(), la.end());
    for (const TermId ib : b) {
      const std::span<const Lit> tb = pool.lits(ib);
      buf.clear();
      std::size_t i = 0;
      std::size_t j = 0;
      bool ok = true;
      while (i < ta.size() && j < tb.size()) {
        if (ta[i] == tb[j]) {
          buf.push_back(ta[i]);
          ++i;
          ++j;
        } else if ((ta[i] >> 1) == (tb[j] >> 1)) {
          ok = false;  // contradiction
          break;
        } else if (ta[i] < tb[j]) {
          buf.push_back(ta[i++]);
        } else {
          buf.push_back(tb[j++]);
        }
      }
      if (!ok) continue;
      buf.insert(buf.end(), ta.begin() + static_cast<std::ptrdiff_t>(i), ta.end());
      buf.insert(buf.end(), tb.begin() + static_cast<std::ptrdiff_t>(j), tb.end());
      ids.push_back(pool.intern(buf));
    }
  }
  simplifyIds(pool, ids, buf, impl_->kept);
}

DnfEngine::Dnf DnfEngine::disjoin(const Dnf& a, const Dnf& b) {
  std::vector<TermId> ids = a.terms;
  ids.insert(ids.end(), b.terms.begin(), b.terms.end());
  return simplify(std::move(ids));
}

DnfEngine::Dnf DnfEngine::trueDnf() {
  impl_->buf.clear();
  return Dnf{{impl_->pool.intern(impl_->buf)}};
}

bool DnfEngine::isTrue(const Dnf& dnf) const {
  for (const TermId id : dnf.terms)
    if (impl_->pool.size(id) == 0) return true;
  return false;
}

std::vector<NodeId> DnfEngine::support(const Dnf& dnf) const {
  std::vector<NodeId> out;
  for (const TermId id : dnf.terms)
    for (const Lit e : impl_->pool.lits(id)) out.push_back(static_cast<NodeId>(e >> 1));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

GateDnf DnfEngine::decode(const Dnf& dnf) const { return decodeIds(impl_->pool, dnf.terms); }

void DnfEngine::maybeTrim() { impl_->pool.maybeTrim(); }

std::size_t DnfEngine::arenaLiterals() const { return impl_->pool.arenaLiterals(); }

namespace {

DnfEngine& threadEngine() {
  thread_local DnfEngine engine;
  return engine;
}

}  // namespace

GateDnf simplifyDnf(GateDnf dnf) {
  DnfEngine& eng = threadEngine();
  eng.maybeTrim();
  return eng.decode(eng.simplify(eng.encode(dnf)));
}

GateDnf andDnf(const GateDnf& a, const GateDnf& b) {
  DnfEngine& eng = threadEngine();
  eng.maybeTrim();
  const std::vector<DnfEngine::TermId> ea = eng.encode(a);
  const std::vector<DnfEngine::TermId> eb = eng.encode(b);
  return eng.decode(eng.conjoin(ea, eb));
}

GateDnf dnfTrue() { return GateDnf{GateTerm{}}; }

bool dnfIsTrue(const GateDnf& dnf) {
  return std::any_of(dnf.begin(), dnf.end(), [](const GateTerm& t) { return t.empty(); });
}

std::vector<NodeId> dnfSupport(const GateDnf& dnf) {
  std::vector<NodeId> support;
  for (const GateTerm& term : dnf)
    for (const GateLiteral& lit : term) support.push_back(lit.select);
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  return support;
}

BddManager& dnfProbabilityManager() {
  // Thread-local manager: hash-consing and the probability cache persist
  // across queries, so a condition seen twice costs two hash lookups.
  thread_local BddManager mgr;
  return mgr;
}

bool trimDnfProbabilityManager(std::size_t cap) {
  BddManager& mgr = dnfProbabilityManager();
  if (mgr.nodeCount() <= cap) return false;
  // Live pins mean someone (SharedGatingPass, the controller generator's
  // degraded-path keys) still holds refs into this manager: defer the trim
  // rather than invalidate them. The holder's unpin lets a later call clear.
  if (mgr.pinned()) return false;
  mgr.clear();
  return true;
}

Rational dnfProbability(const GateDnf& dnf) {
  if (dnf.empty()) return Rational::zero();
  for (const GateTerm& term : dnf)
    if (term.empty()) return Rational::one();
  BddManager& mgr = dnfProbabilityManager();
  trimDnfProbabilityManager(std::size_t{1} << 20);
  return mgr.probability(mgr.fromDnf(dnf));
}

std::string dnfToString(const GateDnf& dnf, const Graph& g) {
  if (dnf.empty()) return "false";
  std::string out;
  for (std::size_t t = 0; t < dnf.size(); ++t) {
    if (t != 0) out += " | ";
    if (dnf[t].empty()) {
      out += "true";
      continue;
    }
    out += "(";
    for (std::size_t i = 0; i < dnf[t].size(); ++i) {
      if (i != 0) out += " & ";
      out += g.node(dnf[t][i].select).name;
      out += dnf[t][i].value ? "=1" : "=0";
    }
    out += ")";
  }
  return out;
}

}  // namespace pmsched
