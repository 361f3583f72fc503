// Boundary coverage across modules: extreme attribute counts, degenerate
// relations, maximal domains, and adversarial shapes.
#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.h"
#include "core/loss.h"
#include "info/entropy.h"
#include "info/j_measure.h"
#include "jointree/gyo.h"
#include "random/random_relation.h"
#include "relation/acyclic_join.h"
#include "relation/ops.h"
#include "test_util.h"

namespace ajd {
namespace {

TEST(EdgeCases, SixtyFourAttributeRelation) {
  // The AttrSet capacity limit, end to end.
  std::vector<uint64_t> dims(64, 2);
  Schema s = Schema::MakeSynthetic(dims).value();
  RelationBuilder b(s);
  std::vector<uint32_t> row(64, 0);
  b.AddRow(row);
  for (uint32_t i = 0; i < 64; ++i) row[i] = 1;
  b.AddRow(row);
  Relation r = std::move(b).Build();
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_NEAR(EntropyOf(r, AttrSet::Range(64)), std::log(2.0), 1e-12);
  // A 2-bag tree over all 64 attributes.
  AttrSet first = AttrSet::Range(33);
  AttrSet second = AttrSet::Range(64).Minus(AttrSet::Range(32));
  JoinTree t = JoinTree::Make({first, second}, {{0, 1}}).value();
  LossReport loss = ComputeLoss(r, t).value();
  EXPECT_EQ(loss.rho, 0.0);  // rows agree on the separator only diagonally
}

TEST(EdgeCases, SingleRowRelationIsAlwaysLossless) {
  Rng rng(350);
  for (int trial = 0; trial < 10; ++trial) {
    Schema s = Schema::MakeSynthetic({4, 4, 4}).value();
    Relation r = Relation::FromRows(
                     s, {{static_cast<uint32_t>(rng.UniformU64(4)),
                          static_cast<uint32_t>(rng.UniformU64(4)),
                          static_cast<uint32_t>(rng.UniformU64(4))}})
                     .value();
    JoinTree t = testing_util::RandomJoinTree(&rng, 3);
    LossReport loss = ComputeLoss(r, t).value();
    EXPECT_EQ(loss.rho, 0.0);
    EXPECT_NEAR(JMeasure(r, t), 0.0, 1e-12);
  }
}

TEST(EdgeCases, TwoBagTreeWithIdenticalBagsViaGyo) {
  // Duplicate bags are legal input to GYO (one is an ear of the other).
  GyoResult g = RunGyo({AttrSet{0, 1}, AttrSet{0, 1}}).value();
  EXPECT_TRUE(g.acyclic);
}

TEST(EdgeCases, FullDomainRelationIsIndependentEverywhere) {
  // R = entire product domain: every CMI is 0, every schema lossless.
  Rng rng(351);
  RandomRelationSpec spec;
  spec.domain_sizes = {3, 3, 3};
  spec.num_tuples = 27;
  Relation r = SampleRandomRelation(spec, &rng).value();
  EXPECT_EQ(r.NumRows(), 27u);
  JoinTree t = testing_util::RandomJoinTree(&rng, 3);
  EXPECT_NEAR(JMeasure(r, t), 0.0, 1e-9);
  EXPECT_EQ(ComputeLoss(r, t).value().rho, 0.0);
}

TEST(EdgeCases, SingletonDomains) {
  // All domains of size 1: a single possible tuple.
  Schema s = Schema::MakeSynthetic({1, 1, 1}).value();
  Relation r = Relation::FromRows(s, {{0, 0, 0}}).value();
  JoinTree t =
      JoinTree::Make({AttrSet{0, 1}, AttrSet{1, 2}}, {{0, 1}}).value();
  EXPECT_EQ(ComputeLoss(r, t).value().rho, 0.0);
  EXPECT_NEAR(EntropyOf(r, AttrSet::Range(3)), 0.0, 1e-12);
}

TEST(EdgeCases, StarTreeWithManyLeaves) {
  // 8-attribute star: center {0}, leaves {0,i}.
  std::vector<AttrSet> bags;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  bags.push_back(AttrSet{0, 1});
  for (uint32_t i = 2; i < 8; ++i) {
    bags.push_back(AttrSet{0, i});
    edges.emplace_back(0, static_cast<uint32_t>(bags.size() - 1));
  }
  JoinTree t = JoinTree::Make(bags, edges).value();
  Rng rng(352);
  Relation r = testing_util::RandomTestRelation(&rng, 8, 2, 40);
  // Count propagation and materialization agree even with 7 children.
  LossReport count = ComputeLoss(r, t).value();
  Relation joined = MaterializeAcyclicJoin(r, t).value();
  EXPECT_EQ(count.join_size_exact.value(), joined.NumRows());
}

TEST(EdgeCases, DeepPathTree) {
  // 10-bag path over 11 attributes.
  std::vector<AttrSet> bags;
  for (uint32_t i = 0; i < 10; ++i) bags.push_back(AttrSet{i, i + 1});
  JoinTree t = JoinTree::Path(bags).value();
  Rng rng(353);
  Relation r = testing_util::RandomTestRelation(&rng, 11, 2, 60);
  LossReport count = ComputeLoss(r, t).value();
  Relation joined = MaterializeAcyclicJoin(r, t).value();
  EXPECT_EQ(count.join_size_exact.value(), joined.NumRows());
  // Lemma 4.1 at depth.
  EXPECT_LE(JMeasure(r, t), ComputeLoss(r, t).value().log1p_rho + 1e-8);
}

TEST(EdgeCases, JoinSizeOverflowFallsBackToApprox) {
  // 64 singleton bags over a 4-value diagonal: join size 4^64 = 2^128
  // overflows uint64, but the double-based count must survive and report
  // the overflow via an absent exact value.
  std::vector<uint64_t> dims(64, 4);
  Schema s = Schema::MakeSynthetic(dims).value();
  RelationBuilder b(s);
  std::vector<uint32_t> row(64);
  for (uint32_t v = 0; v < 4; ++v) {
    std::fill(row.begin(), row.end(), v);
    b.AddRow(row);
  }
  Relation r = std::move(b).Build();
  std::vector<AttrSet> bags;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 0; i < 64; ++i) {
    bags.push_back(AttrSet::Singleton(i));
    if (i > 0) edges.emplace_back(i - 1, i);
  }
  JoinTree t = JoinTree::Make(bags, edges).value();
  LossReport count = ComputeLoss(r, t).value();
  EXPECT_NEAR(count.join_size, std::pow(4.0, 64.0), 1e22);
  EXPECT_FALSE(count.join_size_exact.has_value());  // uint64 overflow detected
}

TEST(EdgeCases, MultisetRelationEntropyAndJ) {
  // Multiset semantics: empirical distribution weights by multiplicity.
  Schema s = Schema::MakeSynthetic({2, 2}).value();
  RelationBuilder b(s);
  b.AddRow({0, 0});
  b.AddRow({0, 0});
  b.AddRow({0, 0});
  b.AddRow({1, 1});
  Relation r = std::move(b).Build(/*dedupe=*/false);
  JoinTree t = JoinTree::Make({AttrSet{0}, AttrSet{1}}, {{0, 1}}).value();
  // J = I(A;B) with P(0,0) = 3/4: H(A) = H(B) = H(AB) = h(1/4).
  double h = -(0.75 * std::log(0.75) + 0.25 * std::log(0.25));
  EXPECT_NEAR(JMeasure(r, t), h, 1e-12);
}

TEST(EdgeCases, ProjectionOfMultisetIsSet) {
  Schema s = Schema::MakeSynthetic({2, 2}).value();
  RelationBuilder b(s);
  b.AddRow({0, 0});
  b.AddRow({0, 1});
  b.AddRow({0, 1});
  Relation r = std::move(b).Build(/*dedupe=*/false);
  EXPECT_EQ(Project(r, AttrSet{0}).NumRows(), 1u);
  EXPECT_EQ(Project(r, AttrSet{0, 1}).NumRows(), 2u);
}

TEST(EdgeCases, AnalysisOnMaximallyLossySchema) {
  // Fully independent singleton bags on the diagonal relation: the worst
  // acyclic schema. rho = N^{k-1} - 1 for k attributes.
  Schema s = Schema::MakeSynthetic({6, 6, 6}).value();
  std::vector<std::vector<uint32_t>> rows;
  for (uint32_t i = 0; i < 6; ++i) rows.push_back({i, i, i});
  Relation r = Relation::FromRows(s, rows).value();
  JoinTree t = JoinTree::FromMvdPartition(
                   AttrSet(), {AttrSet{0}, AttrSet{1}, AttrSet{2}})
                   .value();
  AjdAnalysis a = AnalyzeAjd(r, t).value();
  EXPECT_NEAR(a.loss.rho, 35.0, 1e-9);  // 6^3/6 - 1
  EXPECT_NEAR(a.j, 2.0 * std::log(6.0), 1e-9);
  // Lemma 4.1 is tight here too: J = ln(1+rho) = ln 36.
  EXPECT_NEAR(a.j, a.loss.log1p_rho, 1e-9);
}

TEST(EdgeCases, ReducedSchemaCheckOnContainedBags) {
  JoinTree t =
      JoinTree::Make({AttrSet{0, 1, 2}, AttrSet{1, 2}}, {{0, 1}}).value();
  EXPECT_FALSE(t.SchemaIsReduced());
  // The machinery still works: the contained bag contributes H - H = 0.
  Rng rng(355);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 20);
  EXPECT_NEAR(JMeasure(r, t), 0.0, 1e-9);
  EXPECT_EQ(ComputeLoss(r, t).value().rho, 0.0);
}

}  // namespace
}  // namespace ajd
