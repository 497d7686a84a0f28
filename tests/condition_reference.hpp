#pragma once
// Test-only references for the DNF layer (src/sched/condition.cpp):
//
//  * simplifyDnfReference: the pre-interning simplifier on GateDnf vectors.
//    simplifyDnf and DnfEngine::simplify replicate its schedule (one
//    complementary-pair merge per round, then the subsumption filter that
//    keeps the first copy of equal terms), and the property tests in
//    test_condition.cpp require them to match it term for term;
//  * dnfProbabilityReference: exact satisfaction probability by counting
//    the satisfying assignments of the support (2^support cost, capped at
//    `maxSupport` variables); test_bdd.cpp compares the BDD engine behind
//    dnfProbability with it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sched/condition.hpp"
#include "support/diagnostics.hpp"
#include "support/rational.hpp"

namespace pmsched {

namespace reference_detail {

/// True if `a` subsumes `b`: every literal of `a` appears in `b`
/// (a is weaker/more general, so b is redundant in a disjunction).
inline bool subsumes(const GateTerm& a, const GateTerm& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// If `a` and `b` differ only in the polarity of one literal, merge them
/// into the common remainder ((x&s=1)|(x&s=0) -> x). Returns true and fills
/// `merged` on success.
inline bool mergeAdjacent(const GateTerm& a, const GateTerm& b, GateTerm& merged) {
  if (a.size() != b.size()) return false;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].select != b[i].select) return false;
    if (a[i].value != b[i].value) ++mismatches;
  }
  if (mismatches != 1) return false;
  merged.clear();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].value == b[i].value) merged.push_back(a[i]);
  return true;
}

}  // namespace reference_detail

/// The pre-interning simplifyDnf: the same contract, on GateDnf vectors.
inline GateDnf simplifyDnfReference(GateDnf dnf) {
  GateDnf normalized;
  for (GateTerm& term : dnf) {
    if (normalizeTerm(term)) normalized.push_back(std::move(term));
  }

  // Alternate complementary-pair merging and subsumption elimination until
  // stable. The result is not a canonical minimum cover, but it removes
  // every single-literal redundancy, which keeps latch-enable supports (and
  // therefore the control edges the scheduler must respect) tight.
  bool changed = true;
  while (changed) {
    changed = false;
    std::sort(normalized.begin(), normalized.end());
    normalized.erase(std::unique(normalized.begin(), normalized.end()), normalized.end());

    // Merge one complementary pair at a time.
    for (std::size_t i = 0; i < normalized.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < normalized.size() && !changed; ++j) {
        GateTerm merged;
        if (reference_detail::mergeAdjacent(normalized[i], normalized[j], merged)) {
          normalized.erase(normalized.begin() + static_cast<std::ptrdiff_t>(j));
          normalized.erase(normalized.begin() + static_cast<std::ptrdiff_t>(i));
          normalized.push_back(std::move(merged));
          changed = true;
        }
      }
    }

    // Drop subsumed terms, keeping the first copy of equal terms (a merge
    // can recreate a term that is already in the cover; dropping both
    // copies loses the term entirely).
    GateDnf kept;
    for (std::size_t i = 0; i < normalized.size(); ++i) {
      bool redundant = false;
      for (std::size_t j = 0; j < normalized.size() && !redundant; ++j) {
        if (i == j) continue;
        if (normalized[j] == normalized[i]) {
          redundant = j < i;
          continue;
        }
        if (reference_detail::subsumes(normalized[j], normalized[i])) redundant = true;
      }
      if (!redundant) kept.push_back(normalized[i]);
    }
    if (kept.size() != normalized.size()) changed = true;
    normalized = std::move(kept);
  }
  return normalized;
}

/// Exact probability by enumeration; throws SynthesisError above
/// `maxSupport` select variables.
inline Rational dnfProbabilityReference(const GateDnf& dnf, unsigned maxSupport = 24) {
  if (dnf.empty()) return Rational::zero();
  for (const GateTerm& term : dnf)
    if (term.empty()) return Rational::one();

  const std::vector<NodeId> support = dnfSupport(dnf);
  if (support.size() > maxSupport)
    throw SynthesisError("dnfProbability: support of " + std::to_string(support.size()) +
                         " selects exceeds enumeration limit");

  // Exact: count satisfying assignments of the support variables. Each term
  // is two masks over support indices — "which variables it constrains" and
  // "to what values" — so the inner loop is two ANDs and a compare.
  const unsigned k = static_cast<unsigned>(support.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> masks;  // (care, value)
  masks.reserve(dnf.size());
  for (const GateTerm& term : dnf) {
    std::uint64_t care = 0;
    std::uint64_t value = 0;
    bool contradictory = false;
    for (const GateLiteral& lit : term) {
      const auto idx = static_cast<unsigned>(
          std::lower_bound(support.begin(), support.end(), lit.select) - support.begin());
      const std::uint64_t bit = std::uint64_t{1} << idx;
      const std::uint64_t want = lit.value ? bit : 0;
      if ((care & bit) != 0 && (value & bit) != want) {
        contradictory = true;  // same select demanded both ways: never satisfied
        break;
      }
      care |= bit;
      value |= want;
    }
    if (!contradictory) masks.emplace_back(care, value);
  }
  std::uint64_t satisfying = 0;
  for (std::uint64_t assign = 0; assign < (std::uint64_t{1} << k); ++assign) {
    for (const auto& [care, value] : masks) {
      if ((assign & care) == value) {
        ++satisfying;
        break;
      }
    }
  }
  return Rational{static_cast<std::int64_t>(satisfying),
                  static_cast<std::int64_t>(std::uint64_t{1} << k)};
}

}  // namespace pmsched
