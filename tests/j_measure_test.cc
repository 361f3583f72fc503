#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/worstcase.h"
#include "info/factorized.h"
#include "info/j_measure.h"
#include "random/rng.h"
#include "test_util.h"

namespace ajd {
namespace {

// ---------------------------------------------------------------------------
// Theorem 3.2: J(T) = D_KL(P || P^T). The central identity of the paper,
// checked exhaustively on randomized relations x randomized join trees.
// ---------------------------------------------------------------------------

class JEqualsKlTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JEqualsKlTest, JMeasureEqualsKlDivergence) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 50);
    JoinTree t = testing_util::RandomJoinTree(&rng, 4);
    double j = JMeasure(r, t);
    FactorizedDistribution pt(r, t);
    double kl = pt.KlFromEmpirical();
    EXPECT_NEAR(j, kl, 1e-8) << t.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JEqualsKlTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Chain-rule identity: J = sum_i I(Omega_{1:i-1}; Omega_i | Delta_i) for
// every DFS enumeration (telescoping; independent of the root).
// ---------------------------------------------------------------------------

class ChainRuleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChainRuleTest, JMeasureEqualsChainRuleSumForEveryRoot) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 60);
    JoinTree t = testing_util::RandomJoinTree(&rng, 5);
    double j = JMeasure(r, t);
    for (uint32_t root = 0; root < t.NumNodes(); ++root) {
      EXPECT_NEAR(j, JMeasureViaChainRule(r, t, root), 1e-8)
          << t.ToString() << " root=" << root;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainRuleTest,
                         ::testing::Values(11, 12, 13, 14));

// ---------------------------------------------------------------------------
// Theorem 2.2 upper side: J <= sum of DFS-order CMIs, for every root.
// ---------------------------------------------------------------------------

class SandwichUpperTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SandwichUpperTest, JAtMostSumOfDfsCmis) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 60);
    JoinTree t = testing_util::RandomJoinTree(&rng, 5);
    double j = JMeasure(r, t);
    for (uint32_t root = 0; root < t.NumNodes(); ++root) {
      SandwichBounds sandwich = DfsSandwich(r, t, root);
      EXPECT_LE(j, sandwich.sum_cmi + 1e-8)
          << t.ToString() << " root=" << root;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SandwichUpperTest,
                         ::testing::Values(21, 22, 23, 24));

// ---------------------------------------------------------------------------
// Theorem 2.2 lower side via edge supports: every support-MVD CMI is at
// most J (merging bags only coarsens the model class; see DESIGN.md).
// ---------------------------------------------------------------------------

class SandwichLowerTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SandwichLowerTest, EverySupportCmiAtMostJ) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 60);
    JoinTree t = testing_util::RandomJoinTree(&rng, 5);
    double j = JMeasure(r, t);
    for (double cmi : SupportCmis(r, t)) {
      EXPECT_LE(cmi, j + 1e-8) << t.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SandwichLowerTest,
                         ::testing::Values(31, 32, 33, 34));

// ---------------------------------------------------------------------------
// ERRATUM: Theorem 2.2's lower side AS STATED — with DFS prefix/suffix
// sets — fails on a 4-tuple lossless instance where an attribute lives in
// both prefix and suffix but not in Delta_i. The edge-support variant is
// the sound lower bound (tested above).
// ---------------------------------------------------------------------------

TEST(Sandwich, DfsLowerSideCounterexample) {
  Instance inst = MakeThm22DfsCounterexample().value();
  double j = JMeasure(inst.relation, inst.tree);
  EXPECT_NEAR(j, 0.0, 1e-10);  // the instance is lossless
  SandwichBounds sandwich = DfsSandwich(inst.relation, inst.tree, 0);
  // The DFS-stated lower bound is violated: max CMI = ln 2 > 0 = J.
  EXPECT_NEAR(sandwich.max_cmi, std::log(2.0), 1e-10);
  EXPECT_GT(sandwich.max_cmi, j + 0.5);
  // The edge-support CMIs all vanish, as Beeri et al. require for a
  // lossless AJD.
  for (double cmi : SupportCmis(inst.relation, inst.tree)) {
    EXPECT_NEAR(cmi, 0.0, 1e-10);
  }
  // And the chain-rule identity still recovers J exactly.
  EXPECT_NEAR(JMeasureViaChainRule(inst.relation, inst.tree), 0.0, 1e-10);
}

// ---------------------------------------------------------------------------
// Theorem 2.1 (Lee): J = 0 iff the AJD holds.
// ---------------------------------------------------------------------------

TEST(JMeasure, ZeroOnLosslessInstances) {
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst = MakeLosslessMvdInstance(6, 6, 3, 2, 3, &rng).value();
    EXPECT_NEAR(JMeasure(inst.relation, inst.tree), 0.0, 1e-9);
  }
}

TEST(JMeasure, PositiveOnDiagonalInstances) {
  Instance inst = MakeDiagonalInstance(8).value();
  EXPECT_NEAR(JMeasure(inst.relation, inst.tree), std::log(8.0), 1e-9);
}

// J depends only on the schema, not on the tree shape: two different trees
// with the same bags give the same J (Section 2.2 remark).
TEST(JMeasure, TreeShapeInvariance) {
  // Bags {X,U},{X,V},{X,W} as a path and as a star.
  std::vector<AttrSet> bags = {AttrSet{0, 1}, AttrSet{0, 2}, AttrSet{0, 3}};
  JoinTree path = JoinTree::Make(bags, {{0, 1}, {1, 2}}).value();
  JoinTree star = JoinTree::Make(bags, {{0, 1}, {0, 2}}).value();
  Rng rng(62);
  for (int trial = 0; trial < 10; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 50);
    EXPECT_NEAR(JMeasure(r, path), JMeasure(r, star), 1e-9);
  }
}

TEST(JMeasure, MvdReducesToCmi) {
  // For S = {XZ, XY}: J = I(Z;Y|X) (Section 2.2).
  Rng rng(63);
  for (int trial = 0; trial < 10; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 40);
    JoinTree t =
        JoinTree::Make({AttrSet{0, 2}, AttrSet{0, 1}}, {{0, 1}}).value();
    EntropyCalculator calc(&r);
    double cmi = calc.ConditionalMutualInformation(AttrSet{2}, AttrSet{1},
                                                   AttrSet{0});
    EXPECT_NEAR(JMeasure(r, t), cmi, 1e-9);
  }
}

TEST(JMeasureDetailed, BreakdownSumsToJ) {
  Rng rng(64);
  Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 40);
  JoinTree t = testing_util::RandomJoinTree(&rng, 4);
  JMeasureBreakdown bd = JMeasureDetailed(r, t);
  EXPECT_NEAR(bd.j,
              bd.sum_bag_entropies - bd.sum_sep_entropies - bd.total_entropy,
              1e-12);
  EXPECT_NEAR(bd.j, JMeasure(r, t), 1e-9);
}

// JMeasure is JMeasureDetailed's J, not a second summation that could
// round differently.
TEST(JMeasure, EqualsDetailedJBitwise) {
  Rng rng(67);
  for (int trial = 0; trial < 20; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 60);
    JoinTree t = testing_util::RandomJoinTree(&rng, 5);
    EntropyCalculator calc(&r);
    EXPECT_EQ(JMeasure(&calc, t), JMeasureDetailed(&calc, t).j);
    EXPECT_EQ(JMeasure(r, t), JMeasureDetailed(r, t).j);
  }
}

TEST(JMeasure, NonNegativeAlways) {
  Rng rng(65);
  for (int trial = 0; trial < 40; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 30);
    JoinTree t = testing_util::RandomJoinTree(&rng, 4);
    EXPECT_GE(JMeasure(r, t), 0.0);
  }
}

TEST(DfsSandwich, PerStepCmisMatchMaxAndSum) {
  Rng rng(66);
  Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 40);
  JoinTree t = testing_util::RandomJoinTree(&rng, 4);
  SandwichBounds sb = DfsSandwich(r, t);
  double sum = 0.0, mx = 0.0;
  for (double c : sb.per_step_cmi) {
    sum += c;
    mx = std::max(mx, c);
  }
  EXPECT_NEAR(sb.sum_cmi, sum, 1e-12);
  EXPECT_NEAR(sb.max_cmi, mx, 1e-12);
  EXPECT_EQ(sb.per_step_cmi.size(), t.NumNodes() - 1);
}

}  // namespace
}  // namespace ajd
