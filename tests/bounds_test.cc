#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.h"
#include "core/loss.h"
#include "core/worstcase.h"
#include "info/j_measure.h"
#include "random/rng.h"
#include "test_util.h"

namespace ajd {
namespace {

// ---------------------------------------------------------------------------
// Lemma 4.1 (deterministic lower bound) — a property that must hold for
// EVERY relation and every acyclic schema.
// ---------------------------------------------------------------------------

class Lemma41Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Lemma41Test, JAtMostLog1pRho) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 40);
    JoinTree t = testing_util::RandomJoinTree(&rng, 4);
    double j = JMeasure(r, t);
    LossReport loss = ComputeLoss(r, t).value();
    EXPECT_LE(j, loss.log1p_rho + 1e-8)
        << "J=" << j << " log1p(rho)=" << loss.log1p_rho << "\n"
        << t.ToString();
    EXPECT_LE(RhoLowerBoundFromJ(j), loss.rho + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma41Test,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

TEST(Lemma41, TightOnDiagonalFamily) {
  // Example 4.1: J = ln N = ln(1 + rho) exactly, for every N >= 2.
  for (uint64_t n : {2ull, 3ull, 8ull, 50ull, 300ull}) {
    Instance inst = MakeDiagonalInstance(n).value();
    double j = JMeasure(inst.relation, inst.tree);
    LossReport loss = ComputeLoss(inst.relation, inst.tree).value();
    EXPECT_NEAR(j, std::log(static_cast<double>(n)), 1e-9);
    EXPECT_NEAR(j, loss.log1p_rho, 1e-9);
    EXPECT_NEAR(RhoLowerBoundFromJ(j), loss.rho, 1e-6 * n);
  }
}

TEST(Lemma41, InverseFormsConsistent) {
  for (double rho : {0.0, 0.1, 1.0, 10.0, 999.0}) {
    EXPECT_NEAR(RhoLowerBoundFromJ(JUpperBoundFromRho(rho)), rho,
                1e-9 * (1 + rho));
  }
}

// ---------------------------------------------------------------------------
// Proposition 5.1 (product decomposition). NOTE: the proposition AS STATED
// is not universally valid — see Prop51.CounterexampleViolatesStatedBound
// below and bench/prop51_decomposition.cc. On random relations it holds
// overwhelmingly often; these seeded runs document that typical-case
// behavior.
// ---------------------------------------------------------------------------

class Prop51Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Prop51Test, SchemaLossAtMostProductOfMvdLossesTypically) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 50);
    JoinTree t = testing_util::RandomJoinTree(&rng, 5);
    LossReport loss = ComputeLoss(r, t).value();
    std::vector<double> mvd_losses;
    for (const Mvd& mvd : t.SupportMvds()) {
      mvd_losses.push_back(ComputeMvdLoss(r, mvd).value().rho);
    }
    double bound = Proposition51ProductBound(mvd_losses);
    EXPECT_LE(loss.log1p_rho, bound + 1e-8) << t.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop51Test,
                         ::testing::Values(111, 112, 113, 114));

TEST(Prop51, CounterexampleViolatesStatedBound) {
  // ERRATUM: Proposition 5.1 of the paper fails on this 10-tuple instance.
  // 1 + rho(R,S) = 3.2 but the per-MVD product is (1.6)^2 = 2.56, for BOTH
  // the edge-support MVDs and every DFS enumeration of the path rooted at
  // an end (the two coincide here).
  Instance inst = MakeProp51Counterexample().value();
  LossReport loss = ComputeLoss(inst.relation, inst.tree).value();
  EXPECT_NEAR(loss.rho, 2.2, 1e-12);  // |R'| = 32, N = 10
  std::vector<double> mvd_losses;
  for (const Mvd& mvd : inst.tree.SupportMvds()) {
    mvd_losses.push_back(ComputeMvdLoss(inst.relation, mvd).value().rho);
  }
  double bound = Proposition51ProductBound(mvd_losses);
  EXPECT_NEAR(bound, 2.0 * std::log(1.6), 1e-9);
  EXPECT_GT(loss.log1p_rho, bound);  // the violation
  // Lemma 4.1 still holds, as it must (it is proved independently).
  EXPECT_LE(JMeasure(inst.relation, inst.tree), loss.log1p_rho + 1e-9);
}

TEST(Prop51, EmptySupportGivesZero) {
  EXPECT_EQ(Proposition51ProductBound({}), 0.0);
}

TEST(Prop51, SumsLog1pTerms) {
  EXPECT_NEAR(Proposition51ProductBound({1.0, 3.0}),
              std::log(2.0) + std::log(4.0), 1e-12);
}

// ---------------------------------------------------------------------------
// Theorem 5.1 / 5.2 formula plumbing.
// ---------------------------------------------------------------------------

TEST(Thm51, EpsilonStarShrinksWithN) {
  double prev = 1e300;
  for (uint64_t n = 1 << 10; n <= (1 << 24); n <<= 2) {
    double eps = EpsilonStarMvd(64, 64, 4, n, 0.05);
    EXPECT_LT(eps, prev);
    prev = eps;
  }
}

TEST(Thm51, EpsilonStarGrowsWithDomains) {
  EXPECT_LT(EpsilonStarMvd(16, 16, 4, 1 << 20, 0.05),
            EpsilonStarMvd(64, 64, 4, 1 << 20, 0.05));
  EXPECT_LT(EpsilonStarMvd(16, 16, 2, 1 << 20, 0.05),
            EpsilonStarMvd(16, 16, 64, 1 << 20, 0.05));
}

TEST(Thm51, SwapsForWlog) {
  // dA >= dB is w.l.o.g.: the bound must be symmetric in (dA, dB).
  EXPECT_DOUBLE_EQ(EpsilonStarMvd(8, 64, 4, 1 << 20, 0.05),
                   EpsilonStarMvd(64, 8, 4, 1 << 20, 0.05));
  EXPECT_DOUBLE_EQ(Theorem51MinN(8, 64, 4, 0.05),
                   Theorem51MinN(64, 8, 4, 0.05));
}

TEST(Thm51, QualifyingConditionMonotoneInN) {
  const uint64_t d = 32;
  double min_n = Theorem51MinN(d, d, 4, 0.05);
  EXPECT_FALSE(
      Theorem51Applies(d, d, 4, static_cast<uint64_t>(min_n * 0.5), 0.05));
  EXPECT_TRUE(
      Theorem51Applies(d, d, 4, static_cast<uint64_t>(min_n * 2.0), 0.05));
}

TEST(Thm51, TighterDeltaNeedsMoreSamples) {
  EXPECT_LT(Theorem51MinN(32, 32, 4, 0.1), Theorem51MinN(32, 32, 4, 0.001));
  EXPECT_LT(EpsilonStarMvd(32, 32, 4, 1 << 20, 0.1),
            EpsilonStarMvd(32, 32, 4, 1 << 20, 0.001));
}

TEST(Thm52, DeviationShrinksWithEta) {
  double prev = 1e300;
  for (uint64_t eta = 1 << 12; eta <= (1 << 26); eta <<= 2) {
    double dev = Theorem52EntropyDeviation(64, eta, 0.05);
    EXPECT_LT(dev, prev);
    prev = dev;
  }
}

TEST(Thm52, QualifyingEta) {
  double min_eta = Theorem52MinEta(64, 0.05);
  EXPECT_TRUE(
      Theorem52Applies(64, 64, static_cast<uint64_t>(min_eta) + 1, 0.05));
  EXPECT_FALSE(
      Theorem52Applies(64, 64, static_cast<uint64_t>(min_eta / 2), 0.05));
}

TEST(Cor521, DeviationIsTwiceEntropyScale) {
  // 40 sqrt(dA ln^3(2eta/d)/eta) vs 20 sqrt(dA ln^3(eta/d)/eta): the
  // corollary pays a union bound over two entropies.
  EXPECT_GT(Corollary521Deviation(64, 1 << 20, 0.05),
            Theorem52EntropyDeviation(64, 1 << 20, 0.05));
}

TEST(Prop54, GapBoundMatchesC) {
  EXPECT_NEAR(Proposition54ExpectedEntropyGap(100),
              2.0 * std::log(100.0) / 10.0, 1e-12);
}

TEST(Prop55, TailBoundDecreasesInT) {
  double prev = 1e300;
  for (double t = 0.05; t < 2.0; t += 0.05) {
    double b = Proposition55TailBound(64, 64, 1 << 16, t);
    EXPECT_LE(b, prev + 1e-12);
    prev = b;
  }
}

TEST(Prop53, AssemblesBounds) {
  SchemaUpperBound b =
      Proposition53Bound({0.1, 0.2}, {0.01, 0.02}, /*j=*/0.25);
  EXPECT_NEAR(b.sum_cmi_plus_eps, 0.33, 1e-12);
  EXPECT_NEAR(b.via_j, 2 * 0.25 + 0.03, 1e-12);
}

// ---------------------------------------------------------------------------
// Proposition 5.3 end-to-end: the assembled schema bound holds w.h.p. for
// random relations. We use a small instance and verify the INEQUALITY
// ln(1+rho) <= sum_i CMI_i + eps_i, which holds trivially when eps is large
// but must also never be violated when it applies.
// ---------------------------------------------------------------------------

TEST(Prop53, BoundHoldsOnRandomMvdInstances) {
  Rng rng(120);
  const uint64_t d = 8, n = 128;
  int violations = 0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 3, d, n);
    JoinTree t =
        JoinTree::Make({AttrSet{0, 2}, AttrSet{1, 2}}, {{0, 1}}).value();
    LossReport loss = ComputeLoss(r, t).value();
    std::vector<double> cmis = SupportCmis(r, t);
    double eps = EpsilonStarMvd(d, d, d, r.NumRows(), 0.05);
    SchemaUpperBound bound =
        Proposition53Bound(cmis, {eps}, JMeasure(r, t));
    if (loss.log1p_rho > bound.sum_cmi_plus_eps) ++violations;
  }
  EXPECT_EQ(violations, 0);
}

}  // namespace
}  // namespace ajd
