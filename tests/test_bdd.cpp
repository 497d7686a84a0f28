// Tests for the ROBDD condition engine: unique-table canonicity, ite
// algebra, exact probabilities (differential against the retained
// enumeration path and brute-force truth tables), and the lifted support
// cap the subsystem exists for.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <random>

#include "condition_reference.hpp"
#include "sched/bdd.hpp"
#include "sched/condition.hpp"

namespace pmsched {
namespace {

GateLiteral lit(NodeId sel, bool v) { return GateLiteral{sel, v}; }

/// Seeded random DNF over selects 1..vars (duplicates and contradictions
/// allowed — conversion must cope).
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

TEST(Bdd, TerminalAndLiteralBasics) {
  BddManager mgr;
  EXPECT_EQ(mgr.probability(kBddFalse), Rational::zero());
  EXPECT_EQ(mgr.probability(kBddTrue), Rational::one());

  const BddRef a = mgr.literal(7, true);
  EXPECT_EQ(mgr.probability(a), Rational(1, 2));
  EXPECT_EQ(mgr.literal(7, true), a);  // hash-consed
  EXPECT_EQ(mgr.bddNot(mgr.literal(7, false)), a);
  EXPECT_EQ(mgr.support(a), (std::vector<NodeId>{7}));
}

TEST(Bdd, IteAlgebra) {
  BddManager mgr;
  const BddRef a = mgr.literal(1, true);
  const BddRef b = mgr.literal(2, true);
  EXPECT_EQ(mgr.ite(a, kBddTrue, kBddFalse), a);
  EXPECT_EQ(mgr.bddAnd(a, a), a);
  EXPECT_EQ(mgr.bddOr(a, a), a);
  EXPECT_EQ(mgr.bddAnd(a, mgr.bddNot(a)), kBddFalse);
  EXPECT_EQ(mgr.bddOr(a, mgr.bddNot(a)), kBddTrue);
  EXPECT_EQ(mgr.bddNot(mgr.bddNot(b)), b);
  // De Morgan.
  EXPECT_EQ(mgr.bddNot(mgr.bddAnd(a, b)), mgr.bddOr(mgr.bddNot(a), mgr.bddNot(b)));
  // AND/OR commute.
  EXPECT_EQ(mgr.bddAnd(a, b), mgr.bddAnd(b, a));
  EXPECT_EQ(mgr.bddOr(a, b), mgr.bddOr(b, a));
}

TEST(Bdd, UniqueTableCanonicity) {
  // Same function => same node id, regardless of how it was built.
  BddManager mgr;
  const BddRef a = mgr.literal(1, true);
  const BddRef s = mgr.literal(2, true);
  // (a & s) | (a & !s) == a
  const BddRef composed = mgr.bddOr(mgr.bddAnd(a, s), mgr.bddAnd(a, mgr.bddNot(s)));
  EXPECT_EQ(composed, a);

  // Equivalent DNFs converge to the same ref.
  const GateDnf redundant{{lit(1, true)}, {lit(1, true), lit(2, true)}};
  const GateDnf minimal{{lit(1, true)}};
  EXPECT_EQ(mgr.fromDnf(redundant), mgr.fromDnf(minimal));

  // Re-converting an identical DNF allocates no new nodes.
  const std::size_t nodes = mgr.nodeCount();
  EXPECT_EQ(mgr.fromDnf(redundant), a);
  EXPECT_EQ(mgr.nodeCount(), nodes);
}

TEST(Bdd, FromDnfHandlesDegenerateTerms) {
  BddManager mgr;
  EXPECT_EQ(mgr.fromDnf(GateDnf{}), kBddFalse);
  EXPECT_EQ(mgr.fromDnf(dnfTrue()), kBddTrue);
  // Contradictory term contributes FALSE; duplicate literals collapse.
  EXPECT_EQ(mgr.fromDnf(GateDnf{{lit(1, true), lit(1, false)}}), kBddFalse);
  EXPECT_EQ(mgr.fromDnf(GateDnf{{lit(1, true), lit(1, true)}}), mgr.literal(1, true));
  // (s) | (!s) == true.
  EXPECT_EQ(mgr.fromDnf(GateDnf{{lit(1, true)}, {lit(1, false)}}), kBddTrue);
}

TEST(Bdd, RandomDnfsCanonicalAcrossSimplification) {
  // simplifyDnf preserves the function, so the simplified DNF must reach
  // the exact same node as the raw one — in the same manager.
  std::mt19937_64 rng(20260729);
  BddManager mgr;
  for (int round = 0; round < 100; ++round) {
    const GateDnf dnf = randomDnf(rng, 8, 1 + round % 10, 1 + round % 5);
    EXPECT_EQ(mgr.fromDnf(dnf), mgr.fromDnf(simplifyDnf(dnf))) << "round " << round;
  }
}

TEST(Bdd, ProbabilityMatchesReferenceAndTruthTables) {
  // ~100 seeded random DNFs with mixed polarity, duplicate and
  // contradictory terms: the BDD probability must be bit-identical to the
  // retained enumeration path, which in turn must equal the brute-force
  // satisfying-assignment count.
  std::mt19937_64 rng(4242);
  const NodeId vars = 10;
  BddManager shared;  // one manager across all rounds: caches must not leak
  for (int round = 0; round < 120; ++round) {
    const GateDnf dnf = randomDnf(rng, vars, 1 + round % 12, 1 + round % 6);
    const Rational viaBdd = shared.probability(shared.fromDnf(dnf));
    const Rational viaEnum = dnfProbabilityReference(dnf);
    ASSERT_EQ(viaBdd, viaEnum) << "round " << round;
    ASSERT_EQ(dnfProbability(dnf), viaEnum) << "round " << round;

    std::uint64_t satisfying = 0;
    for (std::uint32_t assign = 0; assign < (1U << vars); ++assign)
      if (evalDnf(dnf, assign)) ++satisfying;
    ASSERT_EQ(viaBdd, Rational(static_cast<std::int64_t>(satisfying),
                               std::int64_t{1} << vars))
        << "round " << round;
  }
}

TEST(Bdd, SupportOfConvertedDnf) {
  BddManager mgr;
  // c3 is redundant: (c1=0 & c3=1) | (c1=0 & c3=0) | (c1=1 & c2=0).
  const GateDnf dnf{{lit(1, false), lit(3, true)},
                    {lit(1, false), lit(3, false)},
                    {lit(1, true), lit(2, false)}};
  const BddRef f = mgr.fromDnf(dnf);
  EXPECT_EQ(mgr.support(f), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(mgr.probability(f), Rational(3, 4));
}

TEST(Bdd, WideSupportEvaluatesFast) {
  // The acceptance bar: a >= 48-variable condition in well under a second.
  // 24 disjoint pair-terms over 48 selects; P = 1 - (3/4)^24 exactly.
  GateDnf wide;
  for (NodeId i = 0; i < 48; i += 2) wide.push_back({lit(i, true), lit(i + 1, true)});

  const auto start = std::chrono::steady_clock::now();
  BddManager mgr;
  const Rational p = mgr.probability(mgr.fromDnf(wide));
  const auto elapsed = std::chrono::steady_clock::now() - start;

  Rational miss = Rational::one();
  for (int i = 0; i < 24; ++i) miss *= Rational{3, 4};
  EXPECT_EQ(p, Rational::one() - miss);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1000);

  // A 60-literal conjunction — the deepest chain Rational can express.
  GateDnf narrow{GateTerm{}};
  for (NodeId i = 0; i < 60; ++i) narrow[0].push_back(lit(100 + i, i % 2 == 0));
  EXPECT_EQ(mgr.probability(mgr.fromDnf(narrow)), Rational::dyadic(60));
}

TEST(Bdd, ClearInvalidatesNothingOutstandingAndResets) {
  BddManager mgr;
  (void)mgr.fromDnf(GateDnf{{lit(1, true)}, {lit(2, false), lit(3, true)}});
  EXPECT_GT(mgr.nodeCount(), 2u);
  mgr.clear();
  EXPECT_EQ(mgr.nodeCount(), 2u);
  // The manager is fully usable again after a clear.
  EXPECT_EQ(mgr.probability(mgr.literal(5, true)), Rational(1, 2));
}

TEST(Bdd, ProbabilityBeyond62VariablesViaWideAccumulation) {
  // Regression for the >62-support overflow: the old Rational-based
  // recursion threw "Rational: mul overflow" from deep inside
  // probability() as soon as an INTERMEDIATE value needed more than 62
  // fractional bits, even when the final answer was as small as 1/2. The
  // accumulation now runs in 128-bit dyadics, so only a final value whose
  // reduced denominator genuinely exceeds 2^62 fails — with a diagnostic
  // that says so.
  BddManager mgr;

  // Parity (XOR chain) of k fair bits has probability exactly 1/2, but
  // every internal accumulation step carries a denominator of 2^depth: at
  // 63 and 64 variables the old arithmetic overflowed.
  for (const int k : {63, 64}) {
    BddRef parity = kBddFalse;
    for (NodeId i = 0; i < static_cast<NodeId>(k); ++i) {
      const BddRef x = mgr.literal(1000 + i, true);
      parity = mgr.ite(x, mgr.bddNot(parity), parity);  // parity XOR x
    }
    EXPECT_EQ(mgr.probability(parity), Rational(1, 2)) << k << " variables";
  }

  // Majority-free sanity check at 64 vars: OR of two disjoint 32-literal
  // conjunctions — P = 2^-32 + 2^-32 - 2^-64, denominator 2^64. The exact
  // value is NOT representable; the failure must be the typed
  // BudgetExceededError carrying the support width, not an arithmetic trap.
  GateDnf dnf(2);
  for (NodeId i = 0; i < 32; ++i) dnf[0].push_back(lit(1 + i, true));
  for (NodeId i = 32; i < 64; ++i) dnf[1].push_back(lit(1 + i, true));
  try {
    (void)mgr.probability(mgr.fromDnf(dnf));
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& e) {
    EXPECT_EQ(e.kind(), BudgetKind::RationalWidth);
    EXPECT_EQ(e.detail(), 64u) << "detail must carry the support width";
    EXPECT_NE(std::string(e.what()).find("denominator 2^64"), std::string::npos) << e.what();
  }

  // 62 fractional bits is still exactly representable end to end.
  GateDnf chain{GateTerm{}};
  for (NodeId i = 0; i < 62; ++i) chain[0].push_back(lit(2000 + i, true));
  EXPECT_EQ(mgr.probability(mgr.fromDnf(chain)), Rational::dyadic(62));
}

TEST(Bdd, SharedTraversalApproxMatchesExactAndIsQueryOrderInvariant) {
  // probability and probabilityApprox share one bottom-up traversal. The approx result must be independent of query
  // order / cache warmth (same structure => same arithmetic), and its
  // error bar must truly bound the distance to the exact value.
  std::mt19937_64 rng(90210);
  BddManager warm;
  BddManager cold;
  std::vector<GateDnf> dnfs;
  for (int round = 0; round < 60; ++round) dnfs.push_back(randomDnf(rng, 10, 1 + round % 10, 1 + round % 5));

  std::vector<BddManager::ApproxProbability> incremental;
  for (const GateDnf& d : dnfs) incremental.push_back(warm.probabilityApprox(warm.fromDnf(d)));

  std::vector<BddRef> coldRefs;
  for (const GateDnf& d : dnfs) coldRefs.push_back(cold.fromDnf(d));
  for (std::size_t i = dnfs.size(); i-- > 0;) {
    const BddManager::ApproxProbability a = cold.probabilityApprox(coldRefs[i]);
    EXPECT_EQ(a.value, incremental[i].value) << "dnf " << i;
    EXPECT_EQ(a.error, incremental[i].error) << "dnf " << i;
    const Rational exact = cold.probability(coldRefs[i]);
    const double exactD = static_cast<double>(exact.num()) / static_cast<double>(exact.den());
    EXPECT_LE(std::abs(a.value - exactD), a.error + 1e-15) << "dnf " << i;
  }
}

}  // namespace
}  // namespace pmsched
