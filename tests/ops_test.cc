#include <gtest/gtest.h>

#include "random/rng.h"
#include "relation/ops.h"
#include "test_util.h"

namespace ajd {
namespace {

Relation TwoColumn() {
  Schema s = Schema::Make({{"A", 3}, {"B", 3}}).value();
  return Relation::FromRows(s, {{0, 0}, {0, 1}, {1, 0}, {2, 2}}).value();
}

TEST(Project, DistinctRowsOnly) {
  Relation r = TwoColumn();
  Relation p = Project(r, AttrSet{0});
  EXPECT_EQ(p.NumRows(), 3u);  // A values {0,1,2}
  EXPECT_EQ(p.NumAttrs(), 1u);
  EXPECT_EQ(p.schema().attr(0).name, "A");
}

TEST(Project, FullSetIsIdentityOnSets) {
  Relation r = TwoColumn();
  Relation p = Project(r, AttrSet{0, 1});
  EXPECT_TRUE(SetEquals(r, p));
}

TEST(Project, OfMultisetKeepsFirstOccurrencesAndIsMarkedDistinct) {
  Schema s = Schema::Make({{"A", 3}, {"B", 3}, {"C", 2}}).value();
  const Relation r =
      Relation::FromRows(
          s, {{1, 0, 0}, {0, 2, 1}, {1, 0, 1}, {1, 0, 0}, {2, 1, 0}, {0, 2, 0}},
          /*dedupe=*/false)
          .value();
  ASSERT_EQ(r.NumRows(), 6u);
  const Relation p = Project(r, AttrSet{0, 1});
  ASSERT_EQ(p.NumRows(), 3u);
  // First occurrences, in input order.
  const std::vector<std::vector<uint32_t>> want = {{1, 0}, {0, 2}, {2, 1}};
  for (uint64_t i = 0; i < p.NumRows(); ++i) {
    EXPECT_EQ(p.At(i, 0), want[i][0]) << "row " << i;
    EXPECT_EQ(p.At(i, 1), want[i][1]) << "row " << i;
  }
  EXPECT_EQ(p.DistinctPrefixRows(), p.NumRows());
  EXPECT_FALSE(p.HasDuplicateRows());
}

TEST(CountDistinct, MatchesProjectionSize) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 3, 4, 50);
    for (uint32_t mask = 1; mask < 8; ++mask) {
      AttrSet attrs = AttrSet::FromMask(mask);
      EXPECT_EQ(CountDistinct(r, attrs), Project(r, attrs).NumRows());
    }
  }
}

TEST(Select, FiltersByValue) {
  Relation r = TwoColumn();
  Relation s = Select(r, 0, 0);
  EXPECT_EQ(s.NumRows(), 2u);
  for (uint64_t i = 0; i < s.NumRows(); ++i) EXPECT_EQ(s.At(i, 0), 0u);
}

TEST(SelectWhere, ArbitraryPredicate) {
  Relation r = TwoColumn();
  Relation s = SelectWhere(r, [](const uint32_t* row) {
    return row[0] == row[1];
  });
  EXPECT_EQ(s.NumRows(), 2u);  // (0,0) and (2,2)
}

TEST(NaturalJoin, JoinsOnSharedAttribute) {
  Schema left_schema = Schema::Make({{"A", 3}, {"B", 3}}).value();
  Schema right_schema = Schema::Make({{"B", 3}, {"C", 3}}).value();
  Relation left =
      Relation::FromRows(left_schema, {{0, 0}, {1, 0}, {2, 1}}).value();
  Relation right =
      Relation::FromRows(right_schema, {{0, 5 % 3}, {1, 1}}).value();
  Relation j = NaturalJoin(left, right).value();
  // B=0 matches rows {(0,0),(1,0)} x {(0,2)}; B=1 matches {(2,1)} x {(1,1)}.
  EXPECT_EQ(j.NumRows(), 3u);
  EXPECT_EQ(j.NumAttrs(), 3u);
  EXPECT_EQ(j.schema().attr(2).name, "C");
}

TEST(NaturalJoin, NoSharedAttrsIsCrossProduct) {
  Schema ls = Schema::Make({{"A", 2}}).value();
  Schema rs = Schema::Make({{"B", 2}}).value();
  Relation left = Relation::FromRows(ls, {{0}, {1}}).value();
  Relation right = Relation::FromRows(rs, {{0}, {1}}).value();
  Relation j = NaturalJoin(left, right).value();
  EXPECT_EQ(j.NumRows(), 4u);
}

TEST(NaturalJoinSize, MatchesMaterializedJoin) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 40);
    Relation left = Project(r, AttrSet{0, 1});
    Relation right = Project(r, AttrSet{1, 2});
    Relation j = NaturalJoin(left, right).value();
    EXPECT_EQ(NaturalJoinSize(left, right).value(), j.NumRows());
  }
}

TEST(SemiJoin, KeepsMatchingRows) {
  Schema ls = Schema::Make({{"A", 3}, {"B", 3}}).value();
  Schema rs = Schema::Make({{"B", 3}}).value();
  Relation left =
      Relation::FromRows(ls, {{0, 0}, {1, 1}, {2, 2}}).value();
  Relation right = Relation::FromRows(rs, {{0}, {2}}).value();
  Relation sj = SemiJoin(left, right).value();
  EXPECT_EQ(sj.NumRows(), 2u);
}

TEST(SemiJoin, NoSharedAttrsDependsOnRightEmptiness) {
  Schema ls = Schema::Make({{"A", 2}}).value();
  Schema rs = Schema::Make({{"B", 2}}).value();
  Relation left = Relation::FromRows(ls, {{0}, {1}}).value();
  Relation right_nonempty = Relation::FromRows(rs, {{0}}).value();
  Relation right_empty = Relation::FromRows(rs, {}).value();
  EXPECT_EQ(SemiJoin(left, right_nonempty).value().NumRows(), 2u);
  EXPECT_EQ(SemiJoin(left, right_empty).value().NumRows(), 0u);
}

TEST(Difference, RemovesSharedRows) {
  Relation r = TwoColumn();
  Schema s = Schema::Make({{"A", 3}, {"B", 3}}).value();
  Relation other = Relation::FromRows(s, {{0, 0}, {9 % 3, 2}}).value();
  Relation d = Difference(r, other).value();
  EXPECT_EQ(d.NumRows(), 3u);  // removes only (0,0)
}

TEST(Difference, RequiresSameAttributes) {
  Relation r = TwoColumn();
  Schema s = Schema::Make({{"A", 3}, {"C", 3}}).value();
  Relation other = Relation::FromRows(s, {{0, 0}}).value();
  EXPECT_FALSE(Difference(r, other).ok());
}

TEST(SetEquals, OrderInsensitive) {
  Schema s = Schema::Make({{"A", 2}, {"B", 2}}).value();
  Relation r1 = Relation::FromRows(s, {{0, 0}, {1, 1}}).value();
  Relation r2 = Relation::FromRows(s, {{1, 1}, {0, 0}}).value();
  EXPECT_TRUE(SetEquals(r1, r2));
  Relation r3 = Relation::FromRows(s, {{1, 1}}).value();
  EXPECT_FALSE(SetEquals(r1, r3));
}

TEST(NaturalJoin, JoinWithSelfIsIdentity) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 30);
    Relation j = NaturalJoin(r, r).value();
    EXPECT_TRUE(SetEquals(r, j)) << "self-join must be identity on sets";
  }
}

TEST(Project, DictionaryPropagates) {
  Schema s = Schema::Make({{"City", 0}, {"Zip", 0}}).value();
  RelationBuilder b(s);
  b.AddStringRow({"Seattle", "98101"});
  b.AddStringRow({"Portland", "97201"});
  Relation r = std::move(b).Build();
  Relation p = Project(r, AttrSet{0});
  ASSERT_NE(p.dict(0), nullptr);
  EXPECT_EQ(p.RowToString(0), "(Seattle)");
}

}  // namespace
}  // namespace ajd
