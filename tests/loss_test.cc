#include <gtest/gtest.h>

#include <cmath>

#include "core/loss.h"
#include "core/worstcase.h"
#include "engine/analysis_session.h"
#include "random/rng.h"
#include "relation/acyclic_join.h"
#include "relation/ops.h"
#include "test_util.h"

namespace ajd {
namespace {

TEST(ComputeLoss, ZeroForLosslessInstance) {
  Rng rng(91);
  Instance inst = MakeLosslessMvdInstance(8, 8, 4, 3, 3, &rng).value();
  LossReport report = ComputeLoss(inst.relation, inst.tree).value();
  EXPECT_EQ(report.rho, 0.0);
  EXPECT_EQ(report.log1p_rho, 0.0);
  EXPECT_EQ(report.join_size_exact.value(), inst.relation.NumRows());
}

TEST(ComputeLoss, DiagonalFamilyIsNMinusOne) {
  Instance inst = MakeDiagonalInstance(12).value();
  LossReport report = ComputeLoss(inst.relation, inst.tree).value();
  EXPECT_NEAR(report.rho, 11.0, 1e-12);
  EXPECT_NEAR(report.log1p_rho, std::log(12.0), 1e-12);
}

TEST(ComputeLoss, RejectsEmptyRelation) {
  Schema s = Schema::Make({{"A", 2}, {"B", 2}}).value();
  Relation r = Relation::FromRows(s, {}).value();
  JoinTree t = JoinTree::Make({AttrSet{0}, AttrSet{1}}, {{0, 1}}).value();
  EXPECT_EQ(ComputeLoss(r, t).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ComputeLoss, RejectsForeignAttributes) {
  Schema s = Schema::Make({{"A", 2}}).value();
  Relation r = Relation::FromRows(s, {{0}}).value();
  JoinTree t = JoinTree::Make({AttrSet{0}, AttrSet{5}}, {{0, 1}}).value();
  EXPECT_FALSE(ComputeLoss(r, t).ok());
}

TEST(ComputeLoss, RhoNonNegativeOnRandomInputs) {
  Rng rng(92);
  for (int trial = 0; trial < 40; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 40);
    JoinTree t = testing_util::RandomJoinTree(&rng, 4);
    LossReport report = ComputeLoss(r, t).value();
    EXPECT_GE(report.rho, 0.0);
  }
}

TEST(ComputeMvdLoss, MatchesMaterializedJoinOfProjections) {
  Rng rng(93);
  for (int trial = 0; trial < 30; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 35);
    Mvd mvd = MakeMvd(AttrSet{2}, AttrSet{0}, AttrSet{1});
    LossReport report = ComputeMvdLoss(r, mvd).value();
    Relation a = Project(r, mvd.side_a);
    Relation b = Project(r, mvd.side_b);
    Relation joined = NaturalJoin(a, b).value();
    double expected_rho =
        (static_cast<double>(joined.NumRows()) -
         static_cast<double>(r.NumRows())) /
        static_cast<double>(r.NumRows());
    EXPECT_NEAR(report.rho, expected_rho, 1e-12);
    EXPECT_EQ(report.join_size_exact.value(), joined.NumRows());
  }
}

TEST(ComputeMvdLoss, EmptyLhsIsCrossProduct) {
  Instance inst = MakeDiagonalInstance(9).value();
  Mvd mvd = MakeMvd(AttrSet(), AttrSet{0}, AttrSet{1});
  LossReport report = ComputeMvdLoss(inst.relation, mvd).value();
  EXPECT_EQ(report.join_size_exact.value(), 81u);
  EXPECT_NEAR(report.rho, 8.0, 1e-12);
}

TEST(ComputeMvdLoss, AgreesWithComputeLossOnTwoBagTree) {
  // For a 2-bag tree, the schema loss IS the MVD loss of its single
  // support MVD.
  Rng rng(94);
  for (int trial = 0; trial < 20; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 30);
    JoinTree t =
        JoinTree::Make({AttrSet{0, 1}, AttrSet{1, 2}}, {{0, 1}}).value();
    LossReport schema_loss = ComputeLoss(r, t).value();
    LossReport mvd_loss =
        ComputeMvdLoss(r, t.SupportMvds()[0]).value();
    EXPECT_NEAR(schema_loss.rho, mvd_loss.rho, 1e-12);
  }
}

TEST(ComputeMvdLoss, LosslessWhenConditionallyIndependent) {
  Rng rng(95);
  Instance inst = MakeLosslessMvdInstance(7, 7, 5, 2, 3, &rng).value();
  Mvd mvd = MakeMvd(AttrSet{2}, AttrSet{0}, AttrSet{1});
  LossReport report = ComputeMvdLoss(inst.relation, mvd).value();
  EXPECT_EQ(report.rho, 0.0);
}

TEST(ComputeMvdLoss, OverlappingSidesJoinOnAllSharedAttrs) {
  // Sides {0,1,2} and {1,2}: shared attrs {1,2} even though lhs is {1}.
  Rng rng(96);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 25);
  Mvd mvd;
  mvd.lhs = AttrSet{1};
  mvd.side_a = AttrSet{0, 1, 2};
  mvd.side_b = AttrSet{1, 2};
  LossReport report = ComputeMvdLoss(r, mvd).value();
  // R[ABC] join R[BC] on {B,C} has exactly |R| tuples (R is a set).
  EXPECT_EQ(report.join_size_exact.value(), r.NumRows());
  EXPECT_EQ(report.rho, 0.0);
}

TEST(ComputeMvdLoss, SessionFormRejectsWhatTheHashFormRejects) {
  AnalysisSession session;
  Schema s = Schema::Make({{"A", 2}, {"B", 2}}).value();
  Relation empty = Relation::FromRows(s, {}).value();
  Relation r = Relation::FromRows(s, {{0, 1}, {1, 0}}).value();
  const Mvd foreign = MakeMvd(AttrSet(), AttrSet{0}, AttrSet{5});
  Mvd malformed;
  malformed.lhs = AttrSet{1};
  malformed.side_a = AttrSet{0};
  malformed.side_b = AttrSet{1};
  EXPECT_EQ(ComputeMvdLoss(&session, empty, MakeMvd(AttrSet(), AttrSet{0},
                                                     AttrSet{1}))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ComputeMvdLoss(&session, r, foreign).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ComputeMvdLoss(&session, r, malformed).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ComputeMvdLoss(r, malformed).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ajd
