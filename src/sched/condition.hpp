#pragma once
// Activation conditions: boolean functions over multiplexor select signals.
//
// A gated operation's latch-enable is a function of select values. For the
// paper's per-mux gating the function is a conjunction of literals; the
// Shared extension (see shared_gating.hpp) produces a disjunction of
// conjunctions (DNF): "this unit's result is used by AT LEAST ONE of these
// conditional consumers". Probabilities are computed exactly under the
// paper's model (independent fair selects).

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cdfg/graph.hpp"
#include "support/rational.hpp"

namespace pmsched {

/// "Select signal `select` carries value `value`."
struct GateLiteral {
  NodeId select = kInvalidNode;
  bool value = false;

  friend bool operator==(const GateLiteral&, const GateLiteral&) = default;
  friend auto operator<=>(const GateLiteral&, const GateLiteral&) = default;
};

/// Conjunction of literals. Invariant after normalizeTerm(): sorted by
/// select id, no duplicate selects (a contradictory term is dropped by the
/// caller instead of being represented).
using GateTerm = std::vector<GateLiteral>;

/// Disjunction of conjunctions. Empty DNF = FALSE; a DNF containing an
/// empty term = TRUE.
using GateDnf = std::vector<GateTerm>;

/// Sort + dedupe; returns false (and leaves `term` unspecified) when the
/// term contains contradictory literals.
[[nodiscard]] bool normalizeTerm(GateTerm& term);

/// AND of two normalized terms; false on contradiction.
[[nodiscard]] bool conjoinTerms(const GateTerm& a, const GateTerm& b, GateTerm& out);

/// Normalize a DNF: normalize terms, drop contradictions, remove duplicate
/// and subsumed terms (a term absorbs any superset of itself), and merge
/// complementary pairs. Runs on the interned-term engine (see
/// condition.cpp); bit-identical to the pre-interning simplifier the
/// tests keep as a reference (tests/condition_reference.hpp).
[[nodiscard]] GateDnf simplifyDnf(GateDnf dnf);

/// The constant TRUE (one empty term).
[[nodiscard]] GateDnf dnfTrue();
/// True iff the DNF is the constant TRUE (contains an empty term).
[[nodiscard]] bool dnfIsTrue(const GateDnf& dnf);

/// AND of two simplified DNFs (cross product of terms, contradictions
/// dropped, result simplified).
[[nodiscard]] GateDnf andDnf(const GateDnf& a, const GateDnf& b);

/// Exact satisfaction probability under independent fair selects. Runs on
/// the ROBDD engine (see sched/bdd.hpp), so there is no support cap: the
/// cost is the BDD size, not 2^support. Bit-identical to the 2^support
/// enumeration the tests keep as a reference (tests/condition_reference.hpp)
/// on every support it can handle.
[[nodiscard]] Rational dnfProbability(const GateDnf& dnf);

class BddManager;

/// The calling thread's DNF→probability manager — the instance
/// dnfProbability runs on. Passes that want O(1) condition identity (the
/// controller generator) or hold refs across queries (SharedGatingPass)
/// build on this instance and pin it (BddManager::pin / BddPin) so the
/// periodic trim below cannot invalidate their handles.
[[nodiscard]] BddManager& dnfProbabilityManager();

/// Clear the calling thread's manager once its arena exceeds `cap` nodes —
/// unless pins are live, in which case the trim is deferred (held refs stay
/// valid; BddManager::epoch() only advances on an actual clear). Returns
/// true iff a clear happened. dnfProbability calls this with the production
/// cap (2^20); tests call it with cap 0 to force the lifecycle.
bool trimDnfProbabilityManager(std::size_t cap);

/// All distinct select signals referenced by the DNF.
[[nodiscard]] std::vector<NodeId> dnfSupport(const GateDnf& dnf);

/// Render for diagnostics/doc: e.g. "(t=1 & eq=0) | (start=0)".
[[nodiscard]] std::string dnfToString(const GateDnf& dnf, const Graph& g);

// ---------------------------------------------------------------------------
// Interned DNF engine — the handle-level interface.
//
// simplifyDnf/andDnf above run on a thread-local instance of this engine
// and decode their results back to GateDnf vectors. Passes that make many
// dependent condition queries (shared gating's needOf/condOf recursion)
// instead own an engine and keep interned handles alive across calls,
// paying the encode/decode cost only at their API boundary.
// ---------------------------------------------------------------------------

class DnfEngine {
 public:
  /// Identity of one interned (sorted, deduped, contradiction-free) term.
  /// Content-equal terms share an id, so term equality is id equality.
  using TermId = std::uint32_t;

  /// An interned DNF: term ids into this engine's pool, sorted by term
  /// content and simplified (see simplifyDnf). Empty = FALSE.
  struct Dnf {
    std::vector<TermId> terms;

    [[nodiscard]] bool isFalse() const { return terms.empty(); }
    friend bool operator==(const Dnf&, const Dnf&) = default;
  };

  DnfEngine();
  ~DnfEngine();
  DnfEngine(const DnfEngine&) = delete;
  DnfEngine& operator=(const DnfEngine&) = delete;

  /// Normalize and intern every term (contradictory terms dropped); the
  /// result is NOT simplified — it mirrors the raw GateDnf term for term.
  [[nodiscard]] std::vector<TermId> encode(const GateDnf& dnf);

  /// The simplifyDnf schedule on already-interned terms: sort/dedupe,
  /// merge complementary pairs one at a time, drop subsumed terms, repeat
  /// until stable. Bit-identical to the reference simplifier in
  /// tests/condition_reference.hpp.
  [[nodiscard]] Dnf simplify(std::vector<TermId> terms);

  /// encode + simplify: the interned equivalent of simplifyDnf.
  [[nodiscard]] Dnf intern(const GateDnf& dnf) { return simplify(encode(dnf)); }

  /// Intern one term that holds no contradictory literals (encode()'s
  /// per-term step, without building a vector around it).
  [[nodiscard]] TermId internTerm(const GateTerm& term);

  /// AND of two term sets (cross product, contradictions dropped, one
  /// final simplify) — the interned equivalent of andDnf.
  [[nodiscard]] Dnf conjoin(std::span<const TermId> a, std::span<const TermId> b) {
    Dnf out;
    conjoinInto(a, b, out);
    return out;
  }
  [[nodiscard]] Dnf conjoin(const Dnf& a, const Dnf& b) {
    return conjoin(std::span<const TermId>(a.terms), std::span<const TermId>(b.terms));
  }
  /// conjoin() into `out`, reusing its storage; `out` must alias neither
  /// operand.
  void conjoinInto(std::span<const TermId> a, std::span<const TermId> b, Dnf& out);

  /// OR: concatenate and simplify once, mirroring the reference pass's
  /// "append all consumer terms, then simplifyDnf" schedule.
  [[nodiscard]] Dnf disjoin(const Dnf& a, const Dnf& b);

  [[nodiscard]] Dnf trueDnf();
  [[nodiscard]] bool isTrue(const Dnf& dnf) const;

  /// Distinct selects over all terms, ascending id.
  [[nodiscard]] std::vector<NodeId> support(const Dnf& dnf) const;

  [[nodiscard]] GateDnf decode(const Dnf& dnf) const;

  /// Reset the pool once its arena outgrows a fixed cap. Invalidates every
  /// outstanding TermId — only the thread-local wrappers (which hold no
  /// handles between calls) may use it.
  void maybeTrim();

  /// Literals currently interned in the arena — the growth measure a
  /// RunBudget's DNF term cap is checked against (passes that hold handles
  /// cannot trim, so they stop gating instead; see shared_gating.cpp).
  [[nodiscard]] std::size_t arenaLiterals() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pmsched
