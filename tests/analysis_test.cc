#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.h"
#include "core/worstcase.h"
#include "random/rng.h"
#include "test_util.h"

namespace ajd {
namespace {

TEST(AnalyzeAjd, LosslessInstanceFlagsLossless) {
  Rng rng(140);
  Instance inst = MakeLosslessMvdInstance(8, 8, 4, 3, 3, &rng).value();
  AjdAnalysis a = AnalyzeAjd(inst.relation, inst.tree).value();
  EXPECT_TRUE(a.lossless);
  EXPECT_NEAR(a.j, 0.0, 1e-10);
  EXPECT_NEAR(a.kl, 0.0, 1e-10);
  EXPECT_EQ(a.loss.rho, 0.0);
  for (const MvdStat& m : a.support) {
    EXPECT_NEAR(m.cmi, 0.0, 1e-10);
    EXPECT_EQ(m.rho, 0.0);
  }
}

TEST(AnalyzeAjd, DiagonalInstanceReportsTightBound) {
  Instance inst = MakeDiagonalInstance(20).value();
  AjdAnalysis a = AnalyzeAjd(inst.relation, inst.tree).value();
  EXPECT_FALSE(a.lossless);
  EXPECT_NEAR(a.j, std::log(20.0), 1e-9);
  EXPECT_NEAR(a.rho_lower_bound, 19.0, 1e-6);
  EXPECT_NEAR(a.loss.rho, 19.0, 1e-9);
}

TEST(AnalyzeAjd, InternalConsistencyOnRandomInputs) {
  Rng rng(141);
  for (int trial = 0; trial < 20; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 40);
    JoinTree t = testing_util::RandomJoinTree(&rng, 4);
    AjdAnalysis a = AnalyzeAjd(r, t).value();
    // Theorem 3.2 and the chain rule agree with J.
    EXPECT_NEAR(a.j, a.kl, 1e-8);
    EXPECT_NEAR(a.j, a.chain_rule_j, 1e-8);
    // Theorem 2.2 upper side.
    EXPECT_LE(a.j, a.sum_dfs_cmi + 1e-8);
    // Lemma 4.1.
    EXPECT_LE(a.j, a.loss.log1p_rho + 1e-8);
    EXPECT_LE(a.rho_lower_bound, a.loss.rho + 1e-6);
    // Proposition 5.1 — typical case; the stated bound is not universal
    // (see Prop51.CounterexampleViolatesStatedBound) but holds for these
    // seeded random inputs.
    EXPECT_LE(a.loss.log1p_rho, a.prop51_bound + 1e-8);
    // Support size.
    EXPECT_EQ(a.support.size(), t.NumNodes() - 1);
    // Active-domain sizes are positive.
    for (const MvdStat& m : a.support) {
      EXPECT_GE(m.d_a, 1u);
      EXPECT_GE(m.d_b, 1u);
      EXPECT_GE(m.d_c, 1u);
      EXPECT_GT(m.epsilon_star, 0.0);
    }
  }
}

TEST(AnalyzeAjd, RejectsBadDelta) {
  Instance inst = MakeDiagonalInstance(4).value();
  EXPECT_FALSE(AnalyzeAjd(inst.relation, inst.tree, 0.0).ok());
  EXPECT_FALSE(AnalyzeAjd(inst.relation, inst.tree, 1.0).ok());
}

TEST(AnalyzeAjd, RejectsRepeatedRowsInsteadOfAborting) {
  // Over a multiset the Yannakakis join count (2) falls below |R| (4), so
  // every loss would come out negative; the analysis must say why instead.
  Schema s = Schema::MakeSynthetic({2, 2}).value();
  RelationBuilder b(s);
  b.AddRow({0, 0});
  b.AddRow({0, 0});
  b.AddRow({0, 0});
  b.AddRow({0, 1});
  Relation r = std::move(b).Build(/*dedupe=*/false);
  JoinTree t = JoinTree::Path({AttrSet{0}, AttrSet{1}}).value();
  Result<AjdAnalysis> a = AnalyzeAjd(r, t);
  ASSERT_FALSE(a.ok());
  const Status st = a.status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  const std::string& msg = st.message();
  EXPECT_NE(msg.find("4 rows"), std::string::npos) << msg;
  EXPECT_NE(msg.find("only 2 distinct"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dedupe = true"), std::string::npos) << msg;
}

TEST(AnalyzeAjd, ToStringMentionsKeyQuantities) {
  Instance inst = MakeDiagonalInstance(6).value();
  AjdAnalysis a = AnalyzeAjd(inst.relation, inst.tree).value();
  std::string s = a.ToString();
  EXPECT_NE(s.find("J-measure"), std::string::npos);
  EXPECT_NE(s.find("Lemma 4.1"), std::string::npos);
  EXPECT_NE(s.find("Prop 5.1"), std::string::npos);
  EXPECT_NE(s.find("lossy"), std::string::npos);
}

TEST(AnalyzeAjd, SingleBagTreeIsAlwaysLossless) {
  Rng rng(142);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 30);
  JoinTree t = JoinTree::Make({r.schema().AllAttrs()}, {}).value();
  AjdAnalysis a = AnalyzeAjd(r, t).value();
  EXPECT_TRUE(a.lossless);
  EXPECT_NEAR(a.j, 0.0, 1e-10);
  EXPECT_TRUE(a.support.empty());
}

}  // namespace
}  // namespace ajd
