// Tests for the activation-condition algebra (terms, DNFs, exact
// probabilities) that Table II's averages rest on.

#include <gtest/gtest.h>

#include <random>

#include "condition_reference.hpp"
#include "sched/bdd.hpp"
#include "sched/condition.hpp"

namespace pmsched {
namespace {

GateLiteral lit(NodeId sel, bool v) { return GateLiteral{sel, v}; }

TEST(Condition, NormalizeSortsAndDedupes) {
  GateTerm term{lit(3, true), lit(1, false), lit(3, true)};
  ASSERT_TRUE(normalizeTerm(term));
  ASSERT_EQ(term.size(), 2u);
  EXPECT_EQ(term[0].select, 1u);
  EXPECT_EQ(term[1].select, 3u);
}

TEST(Condition, NormalizeDetectsContradiction) {
  GateTerm term{lit(2, true), lit(2, false)};
  EXPECT_FALSE(normalizeTerm(term));
}

TEST(Condition, ConjoinMergesAndDetectsConflict) {
  GateTerm a{lit(1, true)};
  GateTerm b{lit(2, false)};
  GateTerm out;
  ASSERT_TRUE(conjoinTerms(a, b, out));
  EXPECT_EQ(out.size(), 2u);

  GateTerm conflicting{lit(1, false)};
  EXPECT_FALSE(conjoinTerms(a, conflicting, out));
}

TEST(Condition, SimplifyDropsSubsumedTerms) {
  // (s1) | (s1 & s2) == (s1)
  GateDnf dnf{{lit(1, true)}, {lit(1, true), lit(2, true)}};
  const GateDnf simplified = simplifyDnf(dnf);
  ASSERT_EQ(simplified.size(), 1u);
  EXPECT_EQ(simplified[0].size(), 1u);
}

TEST(Condition, SimplifyMergesComplementaryPairs) {
  // (s1 & s2) | (s1 & !s2) == (s1)
  GateDnf dnf{{lit(1, true), lit(2, true)}, {lit(1, true), lit(2, false)}};
  const GateDnf simplified = simplifyDnf(dnf);
  ASSERT_EQ(simplified.size(), 1u);
  EXPECT_EQ(simplified[0], (GateTerm{lit(1, true)}));
}

TEST(Condition, SimplifyRecognizesTautology) {
  // (s1) | (!s1) == true (empty term)
  GateDnf dnf{{lit(1, true)}, {lit(1, false)}};
  const GateDnf simplified = simplifyDnf(dnf);
  EXPECT_TRUE(dnfIsTrue(simplified));
}

TEST(Condition, DealerSharedConditionSimplifies) {
  // The dealer's shared adder: (c1=0 & c3=1) | (c1=0 & c3=0) | (c1=1 & c2=0)
  // must simplify to (c1=0) | (c1=1 & c2=0), dropping c3 from the support.
  GateDnf dnf{{lit(1, false), lit(3, true)},
              {lit(1, false), lit(3, false)},
              {lit(1, true), lit(2, false)}};
  const GateDnf simplified = simplifyDnf(dnf);
  EXPECT_EQ(simplified.size(), 2u);
  const std::vector<NodeId> support = dnfSupport(simplified);
  EXPECT_EQ(support, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(dnfProbability(simplified), Rational(3, 4));
}

TEST(Condition, AndDnfDistributes) {
  const GateDnf a{{lit(1, true)}, {lit(2, true)}};
  const GateDnf b{{lit(3, false)}};
  const GateDnf c = andDnf(a, b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(dnfProbability(c), Rational(3, 8));  // P((s1|s2) & !s3)
}

TEST(Condition, AndDnfDropsContradictions) {
  const GateDnf a{{lit(1, true)}};
  const GateDnf b{{lit(1, false)}};
  EXPECT_TRUE(andDnf(a, b).empty());  // FALSE
}

TEST(Condition, TrueAndFalseProbability) {
  EXPECT_EQ(dnfProbability(dnfTrue()), Rational(1));
  EXPECT_EQ(dnfProbability(GateDnf{}), Rational(0));
}

TEST(Condition, SingleLiteralIsHalf) {
  EXPECT_EQ(dnfProbability(GateDnf{{lit(7, true)}}), Rational(1, 2));
}

TEST(Condition, ConjunctionIsProductOfHalves) {
  EXPECT_EQ(dnfProbability(GateDnf{{lit(1, true), lit(2, false), lit(3, true)}}),
            Rational(1, 8));
}

TEST(Condition, UnionWithOverlapIsInclusionExclusion) {
  // P(s1 | s2) = 3/4 even though terms overlap.
  EXPECT_EQ(dnfProbability(GateDnf{{lit(1, true)}, {lit(2, true)}}), Rational(3, 4));
}

TEST(Condition, ReferenceSupportLimitStillEnforced) {
  GateDnf big;
  GateTerm term;
  for (NodeId i = 0; i < 30; ++i) term.push_back(lit(i, true));
  big.push_back(term);
  EXPECT_THROW((void)dnfProbabilityReference(big, 24), SynthesisError);
  EXPECT_NO_THROW((void)dnfProbabilityReference(big, 30));
}

TEST(Condition, ProbabilityBeyondEnumerationCap) {
  // Regression for the lifted 24-variable cap: the seed's dnfProbability
  // threw SynthesisError on this 30-literal term; the BDD path evaluates
  // it exactly.
  GateDnf big;
  GateTerm term;
  for (NodeId i = 0; i < 30; ++i) term.push_back(lit(i, true));
  big.push_back(term);
  EXPECT_EQ(dnfProbability(big), Rational::dyadic(30));

  // A 48-variable union of 24 disjoint pair-terms: P = 1 - (3/4)^24.
  GateDnf wide;
  for (NodeId i = 0; i < 48; i += 2) wide.push_back({lit(i, true), lit(i + 1, true)});
  Rational miss = Rational::one();
  for (int i = 0; i < 24; ++i) miss *= Rational{3, 4};
  EXPECT_EQ(dnfProbability(wide), Rational::one() - miss);
}

TEST(Condition, MergeRecreatingExistingTermKeepsIt) {
  // Regression: (a) | (a & s) | (a & !s) — the pair merge recreates (a),
  // and the old subsumption filter dropped BOTH equal copies, collapsing
  // the whole condition to FALSE (probability 1/2 -> 0).
  GateDnf dnf{{lit(1, true)},
              {lit(1, true), lit(2, true)},
              {lit(1, true), lit(2, false)}};
  const Rational before = dnfProbability(dnf);
  const GateDnf simplified = simplifyDnf(dnf);
  ASSERT_EQ(simplified, (GateDnf{{lit(1, true)}}));
  EXPECT_EQ(dnfProbability(simplified), before);
  EXPECT_EQ(simplifyDnfReference(dnf), simplified);
}

namespace {

/// Seeded random DNF over `vars` selects: `terms` terms of up to `maxLen`
/// literals (duplicates and contradictions allowed — simplify must cope).
GateDnf randomDnf(std::mt19937_64& rng, NodeId vars, int terms, int maxLen) {
  std::uniform_int_distribution<NodeId> sel(1, vars);
  std::uniform_int_distribution<int> len(0, maxLen);
  std::uniform_int_distribution<int> bit(0, 1);
  GateDnf dnf;
  for (int t = 0; t < terms; ++t) {
    GateTerm term;
    const int n = len(rng);
    for (int i = 0; i < n; ++i) term.push_back(lit(sel(rng), bit(rng) != 0));
    dnf.push_back(std::move(term));
  }
  return dnf;
}

/// Brute-force evaluation of a DNF under one assignment (bit i of `assign`
/// is the value of select i+1).
bool evalDnf(const GateDnf& dnf, std::uint32_t assign) {
  for (const GateTerm& term : dnf) {
    bool sat = true;
    for (const GateLiteral& l : term) {
      const bool v = ((assign >> (l.select - 1)) & 1U) != 0;
      if (v != l.value) {
        sat = false;
        break;
      }
    }
    if (sat) return true;
  }
  return false;
}

}  // namespace

TEST(Condition, SimplifyMatchesReferenceAndPreservesSemantics) {
  // Property check over random DNFs: the interned engine must be
  // structurally identical to the retained reference, and simplification
  // must not change the function (checked by exact probability AND by
  // brute-force truth-table comparison).
  std::mt19937_64 rng(20260729);
  const NodeId vars = 6;
  for (int round = 0; round < 400; ++round) {
    const GateDnf dnf = randomDnf(rng, vars, 1 + round % 12, 1 + round % 5);
    const GateDnf fast = simplifyDnf(dnf);
    const GateDnf ref = simplifyDnfReference(dnf);
    ASSERT_EQ(fast, ref) << "round " << round;
    ASSERT_EQ(dnfProbability(fast), dnfProbability(dnf)) << "round " << round;
    for (std::uint32_t assign = 0; assign < (1U << vars); ++assign)
      ASSERT_EQ(evalDnf(fast, assign), evalDnf(dnf, assign))
          << "round " << round << " assignment " << assign;
  }
}

TEST(Condition, AndDnfPreservesSemantics) {
  std::mt19937_64 rng(42);
  const NodeId vars = 5;
  for (int round = 0; round < 200; ++round) {
    const GateDnf a = randomDnf(rng, vars, 1 + round % 6, 1 + round % 4);
    const GateDnf b = randomDnf(rng, vars, 1 + round % 5, 1 + round % 3);
    const GateDnf c = andDnf(a, b);
    for (std::uint32_t assign = 0; assign < (1U << vars); ++assign)
      ASSERT_EQ(evalDnf(c, assign), evalDnf(a, assign) && evalDnf(b, assign))
          << "round " << round << " assignment " << assign;
  }
}

TEST(Condition, SimplifyIdempotent) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 100; ++round) {
    const GateDnf once = simplifyDnf(randomDnf(rng, 6, 1 + round % 10, 1 + round % 4));
    ASSERT_EQ(simplifyDnf(once), once) << "round " << round;
  }
}

TEST(Condition, DnfEngineHandlesMatchFreeFunctions) {
  // The handle-level engine (what shared gating holds in needOf/condOf)
  // must agree operation for operation with the decode/encode free
  // functions it replaces.
  std::mt19937_64 rng(991);
  DnfEngine eng;
  for (int round = 0; round < 150; ++round) {
    const GateDnf a = randomDnf(rng, 6, 1 + round % 8, 1 + round % 4);
    const GateDnf b = randomDnf(rng, 6, 1 + round % 6, 1 + round % 3);
    const DnfEngine::Dnf ia = eng.intern(a);
    const DnfEngine::Dnf ib = eng.intern(b);
    const GateDnf sa = simplifyDnf(a);
    const GateDnf sb = simplifyDnf(b);
    ASSERT_EQ(eng.decode(ia), sa) << "round " << round;
    ASSERT_EQ(eng.decode(eng.conjoin(ia, ib)), andDnf(sa, sb)) << "round " << round;
    GateDnf unioned = sa;
    unioned.insert(unioned.end(), sb.begin(), sb.end());
    ASSERT_EQ(eng.decode(eng.disjoin(ia, ib)), simplifyDnf(unioned)) << "round " << round;
    ASSERT_EQ(eng.support(ia), dnfSupport(sa)) << "round " << round;
    ASSERT_EQ(eng.isTrue(ia), dnfIsTrue(sa)) << "round " << round;
    // Interning is idempotent and canonical: equal content, equal handle.
    ASSERT_EQ(eng.intern(sa), ia) << "round " << round;
  }
}

// Satellite regression (ISSUE 7): a pass holding BDD handles into the
// thread-local probability manager must survive the manager's periodic
// trim. Pins defer the clear; only an unpinned trim advances the epoch and
// invalidates refs.
TEST(Condition, PinnedManagerSurvivesForcedTrim) {
  BddManager& mgr = dnfProbabilityManager();
  mgr.clear();  // deterministic start regardless of earlier tests
  const std::uint64_t epoch0 = mgr.epoch();

  const GateDnf dnf{{lit(1, true), lit(2, false)}, {lit(3, true)}};
  const Rational p = dnfProbability(dnf);

  {
    BddPin hold(mgr);
    const BddRef ref = mgr.fromDnf(dnf);
    // Forced trim (cap 0 = everything is over budget) must be deferred
    // while the pin is live: same epoch, same ref, same probability.
    EXPECT_FALSE(trimDnfProbabilityManager(0));
    EXPECT_EQ(mgr.epoch(), epoch0);
    EXPECT_EQ(mgr.fromDnf(dnf), ref);
    EXPECT_EQ(mgr.probability(ref), p);

    // A nested holder composes: still pinned after one of two releases.
    {
      BddPin second(mgr);
      EXPECT_FALSE(trimDnfProbabilityManager(0));
    }
    EXPECT_FALSE(trimDnfProbabilityManager(0));
    EXPECT_EQ(mgr.probability(ref), p);
  }

  // Last pin released: the deferred trim now lands and the epoch advances,
  // telling holders their cached refs are stale.
  EXPECT_TRUE(trimDnfProbabilityManager(0));
  EXPECT_EQ(mgr.epoch(), epoch0 + 1);
  EXPECT_EQ(mgr.nodeCount(), 2u);  // just the terminals
  // And the rebuilt condition still answers identically.
  EXPECT_EQ(dnfProbability(dnf), p);
}

TEST(Condition, ToStringReadable) {
  Graph g;
  const NodeId a = g.addInput("flagA", 1);
  const NodeId b = g.addInput("flagB", 1);
  const GateDnf dnf{{lit(a, true), lit(b, false)}, {lit(b, true)}};
  const std::string text = dnfToString(dnf, g);
  EXPECT_EQ(text, "(flagA=1 & flagB=0) | (flagB=1)");
  EXPECT_EQ(dnfToString(GateDnf{}, g), "false");
  EXPECT_EQ(dnfToString(dnfTrue(), g), "true");
}

}  // namespace
}  // namespace pmsched
