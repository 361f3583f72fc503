#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "random/rng.h"
#include "relation/relation.h"
#include "relation/row_hash.h"
#include "relation/schema.h"

namespace ajd {
namespace {

TEST(Schema, MakeRejectsDuplicatesAndEmptyNames) {
  EXPECT_FALSE(Schema::Make({{"A", 2}, {"A", 3}}).ok());
  EXPECT_FALSE(Schema::Make({{"", 2}}).ok());
  EXPECT_TRUE(Schema::Make({{"A", 2}, {"B", 3}}).ok());
}

TEST(Schema, MakeRejectsTooManyAttributes) {
  std::vector<Attribute> attrs;
  for (int i = 0; i < 65; ++i) attrs.push_back({"X" + std::to_string(i), 2});
  EXPECT_EQ(Schema::Make(attrs).status().code(),
            StatusCode::kCapacityExceeded);
}

TEST(Schema, FindAndPositionOf) {
  Schema s = Schema::Make({{"A", 2}, {"B", 3}}).value();
  EXPECT_EQ(s.Find("B").value(), 1u);
  EXPECT_FALSE(s.Find("C").has_value());
  EXPECT_EQ(s.PositionOf("A"), 0u);
}

TEST(Schema, SetOfNames) {
  Schema s = Schema::Make({{"A", 2}, {"B", 3}, {"C", 4}}).value();
  EXPECT_EQ(s.SetOf({"A", "C"}).value(), (AttrSet{0, 2}));
  EXPECT_FALSE(s.SetOf({"A", "Z"}).ok());
}

TEST(Schema, DomainProduct) {
  Schema s = Schema::Make({{"A", 3}, {"B", 5}, {"C", 7}}).value();
  EXPECT_EQ(s.DomainProduct(AttrSet{0, 2}).value(), 21u);
  EXPECT_EQ(s.DomainProduct(AttrSet()).value(), 1u);
}

TEST(Schema, MakeSyntheticNames) {
  Schema s = Schema::MakeSynthetic({2, 3}).value();
  EXPECT_EQ(s.attr(0).name, "X0");
  EXPECT_EQ(s.attr(1).name, "X1");
  EXPECT_EQ(s.attr(1).domain_size, 3u);
}

TEST(Dictionary, InternIsIdempotent) {
  Dictionary d;
  uint32_t a = d.Intern("alpha");
  uint32_t b = d.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("alpha"), a);
  EXPECT_EQ(d.ValueOf(a), "alpha");
  EXPECT_EQ(d.Lookup("beta").value(), b);
  EXPECT_FALSE(d.Lookup("gamma").has_value());
  EXPECT_EQ(d.size(), 2u);
}

TEST(Dictionary, TruncateToRollsBackATailOfInterns) {
  Dictionary d;
  uint32_t a = d.Intern("alpha");
  uint32_t b = d.Intern("beta");
  d.Intern("gamma");
  d.Intern("delta");
  d.TruncateTo(2);  // roll back a failed batch's interns
  EXPECT_EQ(d.size(), 2u);
  EXPECT_FALSE(d.Lookup("gamma").has_value());
  EXPECT_FALSE(d.Lookup("delta").has_value());
  EXPECT_EQ(d.Lookup("alpha").value(), a);
  EXPECT_EQ(d.Lookup("beta").value(), b);
  // Re-interning after rollback reuses the freed code range densely.
  EXPECT_EQ(d.Intern("epsilon"), 2u);
  d.TruncateTo(99);  // no-op beyond current size
  EXPECT_EQ(d.size(), 3u);
}

TEST(Dictionary, TruncateToZeroEmptiesCompletely) {
  Dictionary d;
  d.Intern("alpha");
  d.Intern("beta");
  d.TruncateTo(0);
  EXPECT_EQ(d.size(), 0u);
  EXPECT_FALSE(d.Lookup("alpha").has_value());
  EXPECT_FALSE(d.Lookup("beta").has_value());
  // The dictionary is reusable from scratch: dense codes start at 0 again.
  EXPECT_EQ(d.Intern("gamma"), 0u);
  EXPECT_EQ(d.Intern("alpha"), 1u);  // no ghost of the old code 0
}

TEST(Dictionary, TruncateToExactSizeIsANoOp) {
  Dictionary d;
  uint32_t a = d.Intern("alpha");
  uint32_t b = d.Intern("beta");
  d.TruncateTo(2);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.Lookup("alpha").value(), a);
  EXPECT_EQ(d.Lookup("beta").value(), b);
}

TEST(Dictionary, TruncateKeepsValuesInternedBeforeTheCutoff) {
  // A failed batch re-interning EXISTING values stages no new codes for
  // them; rolling back to the pre-batch size must keep those values alive
  // under their original codes, and drop only the genuinely fresh tail.
  Dictionary d;
  uint32_t a = d.Intern("alpha");
  uint32_t b = d.Intern("beta");
  const uint32_t pre_batch_size = d.size();
  EXPECT_EQ(d.Intern("alpha"), a);   // duplicate: no new code
  uint32_t fresh = d.Intern("new");  // fresh: staged at the tail
  EXPECT_EQ(fresh, pre_batch_size);
  EXPECT_EQ(d.Intern("beta"), b);    // duplicate after the fresh one
  d.TruncateTo(pre_batch_size);      // the batch failed
  EXPECT_EQ(d.size(), pre_batch_size);
  EXPECT_EQ(d.Lookup("alpha").value(), a);
  EXPECT_EQ(d.Lookup("beta").value(), b);
  EXPECT_FALSE(d.Lookup("new").has_value());
  // A clean retry recovers the identical code assignment a never-failed
  // run would have produced.
  EXPECT_EQ(d.Intern("new"), fresh);
}

TEST(Dictionary, MatchesAReferenceMapThroughInternsTruncatesAndCopies) {
  // Values of every length class (empty, under 8 bytes, exactly 8, long
  // ones sharing an 8-byte prefix, longer than 255) interned in random
  // order with random rollbacks; codes and lookups must match a std::map
  // reference throughout, and a copy must stay independent of its source.
  Rng rng(7);
  std::vector<std::string> pool = {"", "a", "ab", "abc", "abcd", "abcdefgh"};
  for (int i = 0; i < 300; ++i) {
    const std::string digits = std::to_string(i);
    pool.push_back(digits);
    pool.push_back("prefix__" + digits);          // long, shared prefix
    pool.push_back(std::string(i % 300, 'z') + digits);  // up to ~300 bytes
  }
  Dictionary d;
  std::map<std::string, uint32_t> ref;
  std::vector<std::string> by_code;
  for (int step = 0; step < 4000; ++step) {
    if (rng.Bernoulli(0.02)) {
      const uint32_t keep =
          static_cast<uint32_t>(rng.UniformU64(by_code.size() + 1));
      d.TruncateTo(keep);
      for (size_t c = keep; c < by_code.size(); ++c) ref.erase(by_code[c]);
      by_code.resize(keep);
      continue;
    }
    const std::string& v = pool[rng.UniformU64(pool.size())];
    auto [it, fresh] = ref.emplace(v, static_cast<uint32_t>(by_code.size()));
    if (fresh) by_code.push_back(v);
    ASSERT_EQ(d.Intern(v), it->second) << "step " << step;
  }
  ASSERT_EQ(d.size(), by_code.size());
  for (const std::string& v : pool) {
    auto it = ref.find(v);
    const std::optional<uint32_t> want =
        it == ref.end() ? std::nullopt : std::optional<uint32_t>(it->second);
    EXPECT_EQ(d.Lookup(v), want);
  }
  for (uint32_t c = 0; c < d.size(); ++c) EXPECT_EQ(d.ValueOf(c), by_code[c]);

  Dictionary copy = d;
  d.TruncateTo(0);
  EXPECT_EQ(d.Intern("only"), 0u);
  ASSERT_EQ(copy.size(), by_code.size());
  for (uint32_t c = 0; c < copy.size(); ++c) {
    EXPECT_EQ(copy.ValueOf(c), by_code[c]);
    EXPECT_EQ(copy.Lookup(by_code[c]), std::optional<uint32_t>(c));
  }
  EXPECT_FALSE(copy.Lookup("only").has_value());  // not in the pool
}

TEST(Relation, RowCeilingArithmeticAtTheBoundary) {
  // Partitions need N < UINT32_MAX; RowsFit is the one place that rule is
  // computed (a 4-billion-row relation is out of reach for a test).
  EXPECT_EQ(kMaxRelationRows, uint64_t{UINT32_MAX} - 1);
  EXPECT_TRUE(RowsFit(0, 0));
  EXPECT_TRUE(RowsFit(0, kMaxRelationRows));
  EXPECT_FALSE(RowsFit(0, kMaxRelationRows + 1));
  EXPECT_TRUE(RowsFit(kMaxRelationRows - 1, 1));
  EXPECT_FALSE(RowsFit(kMaxRelationRows - 1, 2));
  EXPECT_TRUE(RowsFit(kMaxRelationRows, 0));
  EXPECT_FALSE(RowsFit(kMaxRelationRows, 1));
  EXPECT_FALSE(RowsFit(kMaxRelationRows + 1, 0));
  // No wrap-around for huge inputs.
  EXPECT_FALSE(RowsFit(1, UINT64_MAX));
  EXPECT_FALSE(RowsFit(UINT64_MAX, UINT64_MAX));
}

TEST(Relation, RowMajorStringAppendMatchesNestedForm) {
  // The string_view form the CSV path calls and the nested-vector form
  // land the same rows, codes and dictionaries.
  const std::vector<std::vector<std::string>> rows = {
      {"x", "long value past eight"},
      {"y", "p"},
      {"x", "long value past eight"}};
  Relation nested = std::move(RelationBuilder(
                                  Schema::MakeUniform({"a", "b"}, 0).value()))
                        .Build(false);
  Relation flat = nested;
  ASSERT_TRUE(nested.AppendStringBatch(rows, /*dedupe=*/true).ok());
  std::vector<std::string_view> fields;
  for (const auto& row : rows) {
    fields.insert(fields.end(), row.begin(), row.end());
  }
  ASSERT_TRUE(flat.AppendStringBatch(fields.data(), rows.size(), true).ok());
  EXPECT_EQ(flat.NumRows(), 2u);
  EXPECT_EQ(flat.data(), nested.data());
  EXPECT_EQ(flat.epoch(), nested.epoch());
  for (uint32_t a = 0; a < 2; ++a) {
    ASSERT_EQ(flat.dict(a)->size(), nested.dict(a)->size());
    for (uint32_t c = 0; c < flat.dict(a)->size(); ++c) {
      EXPECT_EQ(flat.dict(a)->ValueOf(c), nested.dict(a)->ValueOf(c));
    }
  }
}

TEST(RelationBuilder, BuildsAndDedupes) {
  Schema s = Schema::Make({{"A", 0}, {"B", 0}}).value();
  RelationBuilder b(s);
  b.AddRow({0, 1});
  b.AddRow({0, 1});
  b.AddRow({1, 1});
  Relation r = std::move(b).Build(/*dedupe=*/true);
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_FALSE(r.HasDuplicateRows());
}

TEST(RelationBuilder, MultisetModeKeepsDuplicates) {
  Schema s = Schema::Make({{"A", 0}}).value();
  RelationBuilder b(s);
  b.AddRow({3});
  b.AddRow({3});
  Relation r = std::move(b).Build(/*dedupe=*/false);
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_TRUE(r.HasDuplicateRows());
  EXPECT_EQ(r.NumDistinctRows(), 1u);
}

TEST(RelationBuilder, GrowsDomainSizes) {
  Schema s = Schema::Make({{"A", 1}}).value();
  RelationBuilder b(s);
  b.AddRow({9});
  Relation r = std::move(b).Build();
  EXPECT_EQ(r.schema().attr(0).domain_size, 10u);
}

TEST(RelationBuilder, StringRowsInternAndRender) {
  Schema s = Schema::Make({{"City", 0}, {"State", 0}}).value();
  RelationBuilder b(s);
  b.AddStringRow({"Seattle", "WA"});
  b.AddStringRow({"Portland", "OR"});
  b.AddStringRow({"Seattle", "WA"});
  Relation r = std::move(b).Build();
  EXPECT_EQ(r.NumRows(), 2u);
  ASSERT_NE(r.dict(0), nullptr);
  EXPECT_EQ(r.RowToString(0), "(Seattle, WA)");
}

TEST(Relation, FromRowsChecksWidth) {
  Schema s = Schema::Make({{"A", 2}, {"B", 2}}).value();
  EXPECT_FALSE(Relation::FromRows(s, {{0}}).ok());
  Result<Relation> r = Relation::FromRows(s, {{0, 1}, {1, 0}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().NumRows(), 2u);
}

TEST(Relation, ContainsRow) {
  Schema s = Schema::Make({{"A", 3}, {"B", 3}}).value();
  Relation r = Relation::FromRows(s, {{0, 1}, {2, 2}}).value();
  uint32_t present[] = {0, 1};
  uint32_t absent[] = {1, 0};
  EXPECT_TRUE(r.ContainsRow(present));
  EXPECT_FALSE(r.ContainsRow(absent));
}

TEST(Relation, ToStringTruncates) {
  Schema s = Schema::Make({{"A", 10}}).value();
  std::vector<std::vector<uint32_t>> rows;
  for (uint32_t i = 0; i < 10; ++i) rows.push_back({i});
  Relation r = Relation::FromRows(s, rows).value();
  std::string text = r.ToString(3);
  EXPECT_NE(text.find("(7 more)"), std::string::npos);
}

// --- The distinct-prefix watermark -----------------------------------------

Relation BuildCodes(const std::vector<std::vector<uint32_t>>& rows,
                    bool dedupe) {
  RelationBuilder b(Schema::Make({{"A", 0}, {"B", 0}}).value());
  for (const auto& row : rows) b.AddRow(row);
  return std::move(b).Build(dedupe);
}

TEST(Relation, DistinctPrefixRowsAfterBuild) {
  const Relation set = BuildCodes({{0, 1}, {0, 1}, {1, 1}, {2, 0}}, true);
  EXPECT_EQ(set.NumRows(), 3u);
  EXPECT_EQ(set.DistinctPrefixRows(), 3u);
  EXPECT_FALSE(set.HasDuplicateRows());
  EXPECT_EQ(set.NumDistinctRows(), 3u);

  const Relation multiset = BuildCodes({{0, 1}, {1, 1}, {0, 1}}, false);
  EXPECT_EQ(multiset.DistinctPrefixRows(), 0u);
  EXPECT_TRUE(multiset.HasDuplicateRows());
  EXPECT_EQ(multiset.NumDistinctRows(), 2u);

  // Build(false) proves nothing even over distinct rows; the counting
  // path still answers.
  const Relation unproven = BuildCodes({{0, 1}, {1, 1}}, false);
  EXPECT_EQ(unproven.DistinctPrefixRows(), 0u);
  EXPECT_FALSE(unproven.HasDuplicateRows());
  EXPECT_EQ(unproven.NumDistinctRows(), 2u);

  EXPECT_EQ(BuildCodes({}, true).DistinctPrefixRows(), 0u);
}

TEST(Relation, DedupedAppendRaisesTheDistinctPrefix) {
  Relation r = BuildCodes({{0, 1}, {1, 1}}, false);
  ASSERT_EQ(r.DistinctPrefixRows(), 0u);
  // The first deduped append builds the row index over every row.
  ASSERT_TRUE(r.AppendBatch({{2, 2}, {0, 1}}, /*dedupe=*/true).ok());
  EXPECT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.DistinctPrefixRows(), 3u);
  // A deduped batch that lands no row still leaves it at N.
  Relation all_dropped = BuildCodes({{0, 1}, {1, 1}}, false);
  ASSERT_TRUE(all_dropped.AppendBatch({{0, 1}}, /*dedupe=*/true).ok());
  EXPECT_EQ(all_dropped.epoch(), 0u);
  EXPECT_EQ(all_dropped.DistinctPrefixRows(), 2u);
  // Over repeated rows the index proves nothing.
  Relation repeated = BuildCodes({{0, 1}, {0, 1}}, false);
  ASSERT_TRUE(repeated.AppendBatch({{5, 5}}, /*dedupe=*/true).ok());
  EXPECT_EQ(repeated.DistinctPrefixRows(), 0u);
  // A string append into an empty relation (the CSV path) builds it too.
  Relation empty = BuildCodes({}, false);
  ASSERT_TRUE(empty
                  .AppendStringBatch({{"a", "b"}, {"a", "c"}, {"a", "b"}},
                                     /*dedupe=*/true)
                  .ok());
  EXPECT_EQ(empty.NumRows(), 2u);
  EXPECT_EQ(empty.DistinctPrefixRows(), 2u);
}

TEST(Relation, MultisetAppendKeepsTheDistinctPrefixExact) {
  Relation r = BuildCodes({{0, 1}, {1, 1}}, true);
  ASSERT_TRUE(r.AppendBatch({{2, 2}}, /*dedupe=*/true).ok());
  ASSERT_EQ(r.DistinctPrefixRows(), 3u);
  // The index now exists, so a multiset append stays counted in it.
  ASSERT_TRUE(r.AppendBatch({{3, 3}}, /*dedupe=*/false).ok());
  EXPECT_EQ(r.DistinctPrefixRows(), 4u);
  ASSERT_TRUE(r.AppendBatch({{0, 1}}, /*dedupe=*/false).ok());
  EXPECT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.DistinctPrefixRows(), 4u);
  EXPECT_TRUE(r.HasDuplicateRows());
  EXPECT_EQ(r.NumDistinctRows(), 4u);
  // It never falls, and later distinct rows cannot raise it past the
  // repeat.
  ASSERT_TRUE(r.AppendBatch({{7, 7}}, /*dedupe=*/true).ok());
  EXPECT_EQ(r.NumRows(), 6u);
  EXPECT_EQ(r.DistinctPrefixRows(), 4u);
}

TEST(Relation, DistinctPrefixRowsFollowsCopiesAndMoves) {
  Relation r = BuildCodes({{0, 1}, {1, 1}, {2, 1}}, true);
  const Relation copy(r);
  EXPECT_EQ(copy.DistinctPrefixRows(), 3u);
  Relation assigned = BuildCodes({{0, 0}, {0, 0}}, false);
  assigned = r;
  EXPECT_EQ(assigned.DistinctPrefixRows(), 3u);
  Relation moved(std::move(r));
  EXPECT_EQ(moved.DistinctPrefixRows(), 3u);
  EXPECT_EQ(r.DistinctPrefixRows(), 0u);  // NOLINT(bugprone-use-after-move)
  Relation move_assigned = BuildCodes({}, false);
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.DistinctPrefixRows(), 3u);
  EXPECT_EQ(moved.DistinctPrefixRows(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(Relation, DistinctPrefixRisesWhileReadersCheckIt) {
  // One appender lands deduped batches while readers pin snapshots: the
  // first min(snapshot rows, watermark) rows must always be distinct, and
  // the watermark a reader sees never falls.
  Rng rng(120);
  std::vector<std::vector<std::vector<uint32_t>>> batches(60);
  for (auto& batch : batches) {
    batch.assign(30, std::vector<uint32_t>(2));
    for (auto& row : batch) {
      for (uint32_t& v : row) v = static_cast<uint32_t>(rng.UniformU64(60));
    }
  }
  Relation r = BuildCodes({}, false);
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::vector<int> violations(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last = 0;
      bool first = true;
      while (!done.load(std::memory_order_acquire)) {
        const RowsSnapshot snap = r.Snapshot();
        const uint64_t watermark = r.DistinctPrefixRows();
        if (watermark < last) ++violations[t];
        last = watermark;
        const uint64_t n = std::min(snap.num_rows, watermark);
        TupleCounter counter(snap.width, n);
        for (uint64_t i = 0; i < n; ++i) counter.Add(snap.Row(i));
        if (counter.NumDistinct() != n) ++violations[t];
        if (first) {
          first = false;
          started.fetch_add(1);
        }
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  // EXPECT, not ASSERT: returning early would leave the readers unjoined.
  for (const auto& batch : batches) {
    EXPECT_TRUE(r.AppendBatch(batch, /*dedupe=*/true).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  for (int t = 0; t < kReaders; ++t) EXPECT_EQ(violations[t], 0) << t;
  EXPECT_EQ(r.DistinctPrefixRows(), r.NumRows());
  EXPECT_FALSE(r.HasDuplicateRows());
}

TEST(TupleCounter, CountsAndDenseIndexes) {
  TupleCounter c(2);
  uint32_t t1[] = {1, 2};
  uint32_t t2[] = {3, 4};
  EXPECT_EQ(c.Add(t1), 0u);
  EXPECT_EQ(c.Add(t2), 1u);
  EXPECT_EQ(c.Add(t1), 0u);
  EXPECT_EQ(c.NumDistinct(), 2u);
  EXPECT_EQ(c.CountAt(0), 2u);
  EXPECT_EQ(c.CountAt(1), 1u);
  EXPECT_EQ(c.TotalCount(), 3u);
  EXPECT_EQ(c.Find(t2), 1u);
  uint32_t t3[] = {9, 9};
  EXPECT_EQ(c.Find(t3), UINT32_MAX);
}

TEST(TupleCounter, SurvivesGrowth) {
  TupleCounter c(1, 2);
  for (uint32_t i = 0; i < 10000; ++i) {
    uint32_t t[] = {i};
    EXPECT_EQ(c.Add(t), i);
  }
  EXPECT_EQ(c.NumDistinct(), 10000u);
  for (uint32_t i = 0; i < 10000; ++i) {
    uint32_t t[] = {i};
    EXPECT_EQ(c.Find(t), i);
    EXPECT_EQ(c.TupleAt(i)[0], i);
  }
}

TEST(TupleCounter, WeightedAdds) {
  TupleCounter c(1);
  uint32_t t[] = {5};
  c.AddWeighted(t, 7);
  c.AddWeighted(t, 3);
  EXPECT_EQ(c.CountAt(0), 10u);
  EXPECT_EQ(c.TotalCount(), 10u);
}

TEST(TupleCounter, ArityZeroCountsOneEmptyTuple) {
  // A projection onto no attributes counts the empty tuple. The arena of
  // an arity-0 counter holds no words, so comparing against a stored tuple
  // must not touch its (null) storage; the sanitizer build checks that.
  TupleCounter c(0);
  const uint32_t unused = 0;
  constexpr uint32_t kN = 50;
  for (uint32_t i = 0; i < kN; ++i) EXPECT_EQ(c.Add(&unused), 0u);
  EXPECT_EQ(c.NumDistinct(), 1u);
  EXPECT_EQ(c.CountAt(0), kN);
  EXPECT_EQ(c.TotalCount(), kN);
  EXPECT_EQ(c.Find(&unused), 0u);
}

}  // namespace
}  // namespace ajd
