// Epoch semantics: randomized equivalence between incremental ingestion
// and cold rebuilds, at every layer.
//
//  - Relation::AppendBatch: append-only growth, epoch bumps, dedupe,
//    domain growth, Status on malformed input.
//  - ColumnStore: post-catch-up dense codes / first_row are
//    bit-identical to a cold store over the full relation.
//  - Partition::ExtendedOfColumn / ExtendedBy: bit-identical (block
//    boundaries, block order, row order) to the cold factories.
//  - EntropyEngine catch-up: for ANY split of a relation into append
//    batches, with queries interleaved at every epoch, every cached
//    partition after catch-up equals the cold replay of its recorded chain
//    over the full relation EXACTLY, and every entropy served from it is
//    bitwise equal to that replay's entropy — across kernels
//    and session/standalone budgets under eviction pressure. When no
//    queries ran before the appends, the whole engine is bitwise
//    indistinguishable from a cold engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/analysis_session.h"
#include "engine/column_store.h"
#include "engine/entropy_engine.h"
#include "engine/partition.h"
#include "engine/worker_pool.h"
#include "info/entropy.h"
#include "random/rng.h"
#include "relation/attr_set.h"
#include "relation/relation.h"
#include "test_util.h"

namespace ajd {
namespace {

// Random rows WITH replacement; occasionally widens the domain so appended
// batches introduce brand-new codes (the dictionary/cardinality-growth
// path).
std::vector<std::vector<uint32_t>> RandomRows(Rng* rng, uint32_t num_attrs,
                                              uint32_t domain,
                                              uint32_t count) {
  std::vector<std::vector<uint32_t>> rows(count,
                                          std::vector<uint32_t>(num_attrs));
  for (auto& row : rows) {
    for (uint32_t a = 0; a < num_attrs; ++a) {
      row[a] = static_cast<uint32_t>(rng->UniformU64(domain));
    }
  }
  return rows;
}

Relation RelationFromRows(uint32_t num_attrs,
                          const std::vector<std::vector<uint32_t>>& rows) {
  std::vector<uint64_t> dims(num_attrs, 2);
  RelationBuilder b(Schema::MakeSynthetic(dims).value());
  for (const auto& row : rows) b.AddRow(row);
  return std::move(b).Build(/*dedupe=*/false);
}

void ExpectPartitionsIdentical(const Partition& got, const Partition& want,
                               const char* what) {
  ASSERT_EQ(got.NumBlocks(), want.NumBlocks()) << what;
  ASSERT_EQ(got.NumStrippedRows(), want.NumStrippedRows()) << what;
  for (uint32_t b = 0; b < want.NumBlocks(); ++b) {
    ASSERT_EQ(got.BlockSize(b), want.BlockSize(b)) << what << " block " << b;
    const uint32_t* gb = got.BlockBegin(b);
    const uint32_t* wb = want.BlockBegin(b);
    for (uint32_t i = 0; i < want.BlockSize(b); ++i) {
      ASSERT_EQ(gb[i], wb[i]) << what << " block " << b << " row " << i;
    }
  }
}

// --- Relation::AppendBatch ------------------------------------------------

TEST(EpochRelation, AppendBumpsEpochAndGrowsDomains) {
  Relation r = RelationFromRows(2, {{0, 1}, {1, 0}});
  EXPECT_EQ(r.epoch(), 0u);
  ASSERT_TRUE(r.AppendBatch({{5, 2}}).ok());
  EXPECT_EQ(r.epoch(), 1u);
  EXPECT_EQ(r.NumRows(), 3u);
  EXPECT_GE(r.schema().attr(0).domain_size, 6u);
  EXPECT_GE(r.schema().attr(1).domain_size, 3u);
  // Existing rows untouched (the append-only contract).
  EXPECT_EQ(r.At(0, 0), 0u);
  EXPECT_EQ(r.At(1, 0), 1u);
  // Empty batch: no epoch bump.
  ASSERT_TRUE(r.AppendBatch({}).ok());
  EXPECT_EQ(r.epoch(), 1u);
}

TEST(EpochRelation, AppendBatchStatusOnRaggedRow) {
  Relation r = RelationFromRows(2, {{0, 1}});
  Status s = r.AppendBatch({{1, 2, 3}});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Error leaves the relation unchanged — no partial append, no bump.
  EXPECT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.epoch(), 0u);
}

TEST(EpochRelation, DedupedAppendDropsExistingAndWithinBatchDuplicates) {
  Relation r = RelationFromRows(2, {{0, 1}, {1, 1}});
  ASSERT_TRUE(r.AppendBatch({{0, 1}, {2, 2}, {2, 2}}, /*dedupe=*/true).ok());
  EXPECT_EQ(r.NumRows(), 3u);  // only {2,2} landed
  EXPECT_EQ(r.epoch(), 1u);
  // An all-duplicate batch changes nothing, including the epoch.
  ASSERT_TRUE(r.AppendBatch({{0, 1}, {1, 1}}, /*dedupe=*/true).ok());
  EXPECT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.epoch(), 1u);
}

TEST(EpochRelation, StringAppendToCodeBuiltRelationIsRejected) {
  // A non-empty code-built relation has no dictionaries; interning would
  // assign fresh codes that alias the raw code space. Must error, not
  // silently corrupt.
  Relation r = RelationFromRows(2, {{5, 7}, {0, 3}});
  Status s = r.AppendStringBatch({{"x", "y"}});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.epoch(), 0u);
  // An EMPTY relation may still bootstrap dictionaries via string appends.
  RelationBuilder b(Schema::MakeUniform({"p", "q"}, 0).value());
  Relation empty = std::move(b).Build(/*dedupe=*/false);
  ASSERT_TRUE(empty.AppendStringBatch({{"a", "b"}}).ok());
  EXPECT_EQ(empty.NumRows(), 1u);
  EXPECT_EQ(empty.dict(0)->ValueOf(empty.At(0, 0)), "a");
}

TEST(EpochRelation, StringAppendsInternThroughExistingDictionaries) {
  RelationBuilder b(Schema::MakeUniform({"x", "y"}, 0).value());
  b.AddStringRow({"a", "p"});
  b.AddStringRow({"b", "q"});
  Relation r = std::move(b).Build(/*dedupe=*/false);
  ASSERT_TRUE(r.AppendStringBatch({{"a", "r"}, {"c", "p"}}).ok());
  EXPECT_EQ(r.NumRows(), 4u);
  // "a" reuses its code; "c"/"r" get fresh ones.
  EXPECT_EQ(r.At(2, 0), r.At(0, 0));
  EXPECT_EQ(r.dict(0)->ValueOf(r.At(3, 0)), "c");
  EXPECT_EQ(r.dict(1)->ValueOf(r.At(2, 1)), "r");
}

TEST(EpochRelation, UidStableAcrossAppendsFreshAcrossRelations) {
  Relation a = RelationFromRows(2, {{0, 0}});
  Relation b = RelationFromRows(2, {{0, 0}});
  EXPECT_NE(a.uid(), b.uid());
  const uint64_t uid = a.uid();
  ASSERT_TRUE(a.AppendBatch({{1, 1}}).ok());
  EXPECT_EQ(a.uid(), uid);  // appends grow the same relation
  Relation moved = std::move(a);
  EXPECT_EQ(moved.uid(), uid);  // identity travels with the data
  EXPECT_NE(a.uid(), uid);      // the husk is not the relation
  // Copies are NEW relations: their future appends diverge from the
  // source's, so a snapshot restored at a served address must not pass
  // the session's identity check.
  Relation copy = moved;
  EXPECT_NE(copy.uid(), moved.uid());
  Relation assigned;
  assigned = moved;
  EXPECT_NE(assigned.uid(), moved.uid());
}

TEST(EpochRelation, RestoredSnapshotAtServedAddressGetsFreshEngine) {
  // The review scenario the fresh-uid-on-copy rule exists for: snapshot a
  // relation, let the original grow under a session, restore the snapshot
  // into the SAME object, and append different data back to the same
  // epoch count. The restored object must read as a different relation.
  Rng rng(7050);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 4, 30);
  Relation snapshot = r;
  AnalysisSession session;
  session.EngineFor(r).Entropy(AttrSet{0, 1});
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, 3, 4, 20)).ok());
  session.EngineFor(r).Entropy(AttrSet{0, 1});
  r = snapshot;  // restore: same address, same epoch count as snapshot
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, 3, 4, 20)).ok());
  // Different uid => transparent rebuild => exact values for the NEW data.
  EntropyEngine& engine = session.EngineFor(r);
  EXPECT_EQ(engine.relation_uid(), r.uid());
  for (uint64_t mask = 1; mask < 8; ++mask) {
    const AttrSet s = AttrSet::FromMask(mask);
    EXPECT_EQ(engine.Entropy(s), EntropyOf(r, s)) << mask;
  }
}

// --- ColumnStore catch-up -------------------------------------------------

TEST(EpochColumnStore, ExtendedColumnsMatchColdStore) {
  Rng rng(7001);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t num_attrs = 2 + static_cast<uint32_t>(rng.UniformU64(3));
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(40));
    auto rows = RandomRows(&rng, num_attrs, domain, 40);
    Relation r = RelationFromRows(num_attrs, rows);
    ColumnStore inc(&r);
    // Touch half the columns before any append so both the extend-built
    // and build-fresh paths are exercised.
    for (uint32_t a = 0; a < num_attrs; a += 2) inc.column(a);
    const uint32_t batches = 1 + static_cast<uint32_t>(rng.UniformU64(3));
    for (uint32_t k = 0; k < batches; ++k) {
      // Widening domain: appended batches introduce unseen codes.
      ASSERT_TRUE(
          r.AppendBatch(RandomRows(&rng, num_attrs, domain + 10 * k,
                                   1 + static_cast<uint32_t>(
                                           rng.UniformU64(30))))
              .ok());
      inc.CatchUp();
      for (uint32_t a = 0; a < num_attrs; ++a) inc.column(a);
    }
    ColumnStore cold(&r);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      const Column& ic = inc.column(a);
      const Column& cc = cold.column(a);
      ASSERT_EQ(ic.cardinality, cc.cardinality) << "attr " << a;
      ASSERT_EQ(ic.codes, cc.codes) << "attr " << a;
      ASSERT_EQ(ic.first_row, cc.first_row) << "attr " << a;
    }
  }
}

TEST(EpochColumnStoreDeathTest, CatchUpAbortsIfRelationShrank) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Relation r = RelationFromRows(2, {{0, 1}, {1, 0}, {1, 1}});
  ColumnStore store(&r);
  store.column(0);
  Relation stolen = std::move(r);  // the husk at &r now has 0 rows
  EXPECT_DEATH(store.CatchUp(), "shrank");
}

// --- Partition delta extension -------------------------------------------

TEST(EpochPartition, ExtendedOfColumnMatchesColdAcrossRandomSplits) {
  Rng rng(7100);
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(60));
    const uint32_t total = 8 + static_cast<uint32_t>(rng.UniformU64(120));
    auto rows = RandomRows(&rng, 1, domain, total);
    Relation full = RelationFromRows(1, rows);
    const uint64_t split = 1 + rng.UniformU64(total - 1);
    Relation prefix = RelationFromRows(
        1, std::vector<std::vector<uint32_t>>(rows.begin(),
                                              rows.begin() + split));
    ColumnStore prefix_store(&prefix);
    ColumnStore full_store(&full);
    const Column& old_col = prefix_store.column(0);
    const Column& new_col = full_store.column(0);
    Partition old_p = Partition::OfColumn(old_col);
    Partition extended = old_p.ExtendedOfColumn(new_col, split);
    Partition cold = Partition::OfColumn(new_col);
    ExpectPartitionsIdentical(extended, cold, "ExtendedOfColumn");
  }
}

TEST(EpochPartition, ExtendedByMatchesColdRefinementAcrossRandomSplits) {
  Rng rng(7200);
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t num_attrs = 2 + static_cast<uint32_t>(rng.UniformU64(2));
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(12));
    const uint32_t total = 10 + static_cast<uint32_t>(rng.UniformU64(150));
    auto rows = RandomRows(&rng, num_attrs, domain, total);
    Relation full = RelationFromRows(num_attrs, rows);
    const uint64_t split = 1 + rng.UniformU64(total - 1);
    Relation prefix = RelationFromRows(
        num_attrs, std::vector<std::vector<uint32_t>>(
                       rows.begin(), rows.begin() + split));
    ColumnStore prefix_store(&prefix);
    ColumnStore full_store(&full);

    // A random chain of 1..num_attrs-1 refinements below the extended step.
    Partition parent_old = Partition::OfColumn(prefix_store.column(0));
    Partition parent_new = Partition::OfColumn(full_store.column(0));
    const uint32_t chain_len =
        1 + static_cast<uint32_t>(rng.UniformU64(num_attrs - 1));
    for (uint32_t j = 1; j < chain_len; ++j) {
      parent_old = parent_old.RefinedBy(prefix_store.column(j));
      parent_new = parent_new.RefinedBy(full_store.column(j));
    }
    const uint32_t col = chain_len;  // the step being delta-extended
    Partition child_old = parent_old.RefinedBy(prefix_store.column(col));
    Partition extended = child_old.ExtendedBy(
        parent_old, parent_new, full_store.column(col), split);
    Partition cold = parent_new.RefinedBy(full_store.column(col));
    ExpectPartitionsIdentical(extended, cold, "ExtendedBy");
    // Entropy of the extended partition: the same grouping, so the same
    // histogram and the same bits.
    const double he = extended.EntropyNats(total);
    const double hc = cold.EntropyNats(total);
    EXPECT_EQ(he, hc);
  }
}

TEST(EpochPartition, MetadataDrivenExtensionMatchesSeededWalk) {
  // Two consecutive appends: the first extension SEEDS the correspondence
  // metadata (run lengths + parent first rows); the second runs scan-free
  // off that metadata, with no access to the old parent at all. Both must
  // equal the cold build bitwise, and the scan-free pass must emit
  // metadata that works for a third round.
  Rng rng(7250);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(10));
    const uint32_t n1 = 10 + static_cast<uint32_t>(rng.UniformU64(60));
    const uint32_t n2 = n1 + 1 + static_cast<uint32_t>(rng.UniformU64(30));
    const uint32_t n3 = n2 + 1 + static_cast<uint32_t>(rng.UniformU64(30));
    auto rows = RandomRows(&rng, 2, domain, n3);
    auto rel_at = [&](uint32_t n) {
      return RelationFromRows(
          2, std::vector<std::vector<uint32_t>>(rows.begin(),
                                                rows.begin() + n));
    };
    Relation r1 = rel_at(n1), r2 = rel_at(n2), r3 = rel_at(n3);
    ColumnStore s1(&r1), s2(&r2), s3(&r3);

    Partition p1_parent = Partition::OfColumn(s1.column(0));
    Partition p2_parent = Partition::OfColumn(s2.column(0));
    Partition p3_parent = Partition::OfColumn(s3.column(0));
    Partition child1 = p1_parent.RefinedBy(s1.column(1));

    // Seeding walk (needs the old parent), emits metadata.
    PartitionDelta meta;
    Partition child2 = child1.ExtendedBy(&p1_parent, p2_parent,
                                         s2.column(1), n1, nullptr, &meta);
    ExpectPartitionsIdentical(child2, p2_parent.RefinedBy(s2.column(1)),
                              "seeded extension");
    ASSERT_EQ(meta.run_lengths.size(), meta.parent_first_rows.size());
    ASSERT_EQ(meta.run_lengths.size(), p2_parent.NumBlocks());

    // Scan-free walk: no old parent passed at all.
    PartitionDelta meta3;
    Partition child3 = child2.ExtendedBy(nullptr, p3_parent, s3.column(1),
                                         n2, &meta, &meta3);
    ExpectPartitionsIdentical(child3, p3_parent.RefinedBy(s3.column(1)),
                              "scan-free extension");
    ASSERT_EQ(meta3.run_lengths.size(), p3_parent.NumBlocks());

    // In-place scan-free form agrees too.
    Partition child2_inplace = child2;
    PartitionDelta meta3b;
    child2_inplace.ExtendInPlaceBy(nullptr, p3_parent, s3.column(1), n2,
                                   &meta, &meta3b);
    ExpectPartitionsIdentical(child2_inplace, child3, "in-place scan-free");
    EXPECT_EQ(meta3b.run_lengths, meta3.run_lengths);
    EXPECT_EQ(meta3b.parent_first_rows, meta3.parent_first_rows);
  }
}

// --- Chunked in-place storage ---------------------------------------------

// First-occurrence densification of a raw value stream: dense codes plus
// the strictly ascending first_row table — exactly the store's contract,
// and consistent across every prefix of the stream.
void DensifyStream(const std::vector<uint32_t>& raw,
                   std::vector<uint32_t>* codes,
                   std::vector<uint32_t>* first_row) {
  std::unordered_map<uint32_t, uint32_t> remap;
  codes->reserve(raw.size());
  for (uint32_t i = 0; i < raw.size(); ++i) {
    auto [it, fresh] =
        remap.emplace(raw[i], static_cast<uint32_t>(first_row->size()));
    if (fresh) first_row->push_back(i);
    codes->push_back(it->second);
  }
}

// The densified stream truncated at `n` rows: prefix codes, prefix
// cardinality (first_row is strictly ascending, so a binary search finds
// it), prefix first_row.
Column ColumnAtCut(const std::vector<uint32_t>& codes,
                   const std::vector<uint32_t>& first_row, uint32_t n) {
  const uint32_t card = static_cast<uint32_t>(
      std::lower_bound(first_row.begin(), first_row.end(), n) -
      first_row.begin());
  return MakeOwnedColumn(
      std::vector<uint32_t>(codes.begin(), codes.begin() + n), card,
      std::vector<uint32_t>(first_row.begin(), first_row.begin() + card));
}

TEST(EpochPartition, ChunkedInPlaceSoakMatchesColdAcrossManyBatches) {
  // Multi-batch soak of the chunked in-place layout: ONE root and ONE
  // child object live across every epoch (adopting the chunked layout on
  // the first in-place extension, relocating blocks through their slack,
  // possibly reclaiming back to flat), pinned bitwise against cold
  // rebuilds each epoch. The copy forms — ExtendedOfColumn on a chunked
  // `this`, ExtendedBy with a chunked child (the flatten-first branch) —
  // and the FlattenStripped canonical form ride along.
  Rng rng(7300);
  for (int trial = 0; trial < 12; ++trial) {
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(40));
    const uint32_t batches = 4 + static_cast<uint32_t>(rng.UniformU64(5));
    std::vector<uint32_t> cuts;
    uint32_t n = 8 + static_cast<uint32_t>(rng.UniformU64(40));
    for (uint32_t b = 0; b < batches; ++b) {
      cuts.push_back(n);
      n += 1 + static_cast<uint32_t>(rng.UniformU64(60));
    }
    auto rows = RandomRows(&rng, 2, domain, cuts.back());

    Partition root;   // extended in place every epoch after the first
    Partition child;  // "
    PartitionDelta meta;
    uint64_t prev = 0;
    for (uint32_t cut : cuts) {
      Relation r = RelationFromRows(
          2, std::vector<std::vector<uint32_t>>(rows.begin(),
                                                rows.begin() + cut));
      ColumnStore s(&r);
      const Column& c0 = s.column(0);
      const Column& c1 = s.column(1);
      if (prev == 0) {
        root = Partition::OfColumn(c0);
        child = root.RefinedBy(c1, RefineKernel::kAuto, &meta);
      } else {
        // Copy forms first, from the (chunked after epoch 1) old objects.
        Partition root_copy = root.ExtendedOfColumn(c0, prev);
        Partition child_copy =
            child.ExtendedBy(nullptr, root_copy, c1, prev, &meta, nullptr);
        root.ExtendOfColumnInPlace(c0, prev);
        PartitionDelta next;
        child.ExtendInPlaceBy(nullptr, root, c1, prev, &meta, &next);
        meta = std::move(next);
        ExpectPartitionsIdentical(root_copy, root, "root copy vs in-place");
        ExpectPartitionsIdentical(child_copy, child,
                                  "child copy vs in-place");
      }
      Partition cold_root = Partition::OfColumn(c0);
      Partition cold_child = cold_root.RefinedBy(c1);
      ExpectPartitionsIdentical(root, cold_root, "in-place root vs cold");
      ExpectPartitionsIdentical(child, cold_child, "in-place child vs cold");
      EXPECT_EQ(child.EntropyNats(cut), cold_child.EntropyNats(cut));

      // The canonical flat form (what compaction adopts) forgets the layout.
      std::vector<uint32_t> rows_got, offsets_got, rows_want, offsets_want;
      child.FlattenStripped(&rows_got, &offsets_got);
      cold_child.FlattenStripped(&rows_want, &offsets_want);
      EXPECT_EQ(rows_got, rows_want);
      EXPECT_EQ(offsets_got, offsets_want);
      prev = cut;
    }
  }
}

TEST(EpochPartition, KernelCrossoverMidExtensionMatchesColdRebuild) {
  // The counting->radix selection threshold (cardinality > 64Ki AND
  // cardinality >= mass/2) flips between epochs as the stripped mass
  // outgrows the fixed value set. The in-place-extended chunked partitions
  // must stay bitwise identical to cold rebuilds even as the cold side
  // switches kernels mid-trajectory.
  Rng rng(7350);
  // Uniform draws only SHOW a fraction of the domain (coupon collector),
  // so the domain is sized for the observed prefix cardinality to land
  // above the 64Ki radix floor and above mass/2 at the start (~82k seen
  // among 140k rows), and below mass/2 by the end (~110k seen among 300k).
  constexpr uint32_t kCard = 120000;
  constexpr uint32_t kStart = 140000;  // card >= mass/2 -> radix (kSort)
  constexpr uint32_t kEnd = 300000;    // card <  mass/2 -> counting (kDense)
  std::vector<uint32_t> raw(kEnd);
  for (auto& v : raw) v = static_cast<uint32_t>(rng.UniformU64(kCard));
  std::vector<uint32_t> codes, first_row;
  DensifyStream(raw, &codes, &first_row);

  // The trajectory really does cross the selection threshold.
  const Column c_start = ColumnAtCut(codes, first_row, kStart);
  const Column c_end = ColumnAtCut(codes, first_row, kEnd);
  ASSERT_EQ(ChooseRefineKernel(c_start.cardinality, kStart),
            RefineKernel::kSort);
  ASSERT_EQ(ChooseRefineKernel(c_end.cardinality, kEnd),
            RefineKernel::kDense);

  Partition parent = Partition::Trivial(kStart);
  PartitionDelta meta;
  Partition child = parent.RefinedBy(c_start, RefineKernel::kAuto, &meta);
  Partition root = Partition::OfColumn(c_start);
  uint64_t prev = kStart;
  std::vector<uint32_t> cuts;
  for (int i = 0; i < 3; ++i) {
    cuts.push_back(kStart + 1 +
                   static_cast<uint32_t>(rng.UniformU64(kEnd - kStart - 1)));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(kEnd);
  for (uint32_t cut : cuts) {
    const Column c = ColumnAtCut(codes, first_row, cut);
    Partition parent_new = Partition::Trivial(cut);
    PartitionDelta next;
    child.ExtendInPlaceBy(nullptr, parent_new, c, prev, &meta, &next);
    meta = std::move(next);
    root.ExtendOfColumnInPlace(c, prev);
    Partition cold_child = parent_new.RefinedBy(c);
    ExpectPartitionsIdentical(child, cold_child, "crossover child");
    ExpectPartitionsIdentical(root, Partition::OfColumn(c),
                              "crossover root");
    EXPECT_EQ(child.EntropyNats(cut), cold_child.EntropyNats(cut));
    prev = cut;
  }
}

// --- Engine catch-up: the acceptance property ----------------------------

struct EngineCase {
  const char* name;
  bool standalone;  // own single-engine arbiter instead of a session's
  size_t budget;
};

// Replays the recorded chain of a cached partition cold over the full
// relation and checks both the partition layout and the served entropy for
// bitwise equality.
void VerifyCachedPartitionsAgainstColdReplay(EntropyEngine* engine,
                                             const Relation& r) {
  ColumnStore cold_store(&r);
  const uint64_t n = r.NumRows();
  const uint64_t all = r.NumAttrs() >= 64
                           ? ~uint64_t{0}
                           : (uint64_t{1} << r.NumAttrs()) - 1;
  for (uint64_t mask = 1; mask <= all; ++mask) {
    const AttrSet s = AttrSet::FromMask(mask);
    std::vector<uint32_t> chain;
    std::shared_ptr<const Partition> cached;
    if (!engine->CachedPartitionInfo(s, &chain, &cached)) continue;
    ASSERT_EQ(chain.size(), s.Count());
    Partition replay = Partition::OfColumn(cold_store.column(chain[0]));
    for (size_t j = 1; j < chain.size(); ++j) {
      replay = replay.RefinedBy(cold_store.column(chain[j]));
    }
    ExpectPartitionsIdentical(*cached, replay, "cached vs chain replay");
    // Bitwise: the engine's exact-hit path answers from the cached
    // partition, whose block-size histogram is the replay's.
    EXPECT_EQ(engine->Entropy(s), replay.EntropyNats(n))
        << "set mask " << mask;
    // And the value is the right entropy (vs the legacy reference).
    EXPECT_EQ(engine->Entropy(s), EntropyOf(r, s));
  }
}

TEST(EpochEngine, IncrementalCatchUpEqualsColdReplayForAnySplit) {
  const EngineCase cases[] = {
      {"session", false, size_t{64} << 20},
      {"standalone", true, size_t{64} << 20},
      {"tiny-session-evicting", false, size_t{6} << 10},
      {"tiny-standalone-evicting", true, size_t{6} << 10},
  };
  Rng rng(7300);
  for (const EngineCase& c : cases) {
    for (int trial = 0; trial < 6; ++trial) {
      const uint32_t num_attrs =
          3 + static_cast<uint32_t>(rng.UniformU64(3));
      const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(8));
      const uint32_t batches =
          2 + static_cast<uint32_t>(rng.UniformU64(4));
      auto first = RandomRows(&rng, num_attrs, domain,
                              5 + static_cast<uint32_t>(rng.UniformU64(40)));
      Relation r = RelationFromRows(num_attrs, first);

      SessionOptions opts;
      opts.engine.cache_budget_bytes = c.budget;
      AnalysisSession session(opts);
      std::unique_ptr<EntropyEngine> standalone;
      if (c.standalone) {
        standalone = std::make_unique<EntropyEngine>(&r, opts.engine);
      }
      EntropyEngine& engine =
          c.standalone ? *standalone : session.EngineFor(r);

      const uint64_t all_masks = (uint64_t{1} << num_attrs) - 1;
      for (uint32_t k = 0; k < batches; ++k) {
        // Query a random mix at this epoch: plain entropies plus
        // materialized prewarms, so catch-up sees both cached shapes.
        std::vector<AttrSet> prewarm;
        for (int q = 0; q < 8; ++q) {
          const AttrSet s =
              AttrSet::FromMask(1 + rng.UniformU64(all_masks - 1));
          if (q % 2 == 0) {
            engine.Entropy(s);
          } else {
            prewarm.push_back(s);
          }
        }
        engine.PrewarmSubsets(prewarm);
        ASSERT_TRUE(
            r.AppendBatch(
                 RandomRows(&rng, num_attrs, domain + 2 * k,
                            1 + static_cast<uint32_t>(rng.UniformU64(25))))
                .ok());
      }
      // First query after the last append triggers the final catch-up.
      engine.Entropy(AttrSet::FromMask(all_masks));
      ASSERT_EQ(engine.Stats().epoch_catchups, batches) << c.name;
      VerifyCachedPartitionsAgainstColdReplay(&engine, r);
      EXPECT_LE(engine.PartitionBytes(), c.budget) << c.name;
    }
  }
}

TEST(EpochEngine, QueriesOnlyAfterAppendsAreBitwiseEqualToColdEngine) {
  // With no queries before the appends, catch-up has nothing cached and
  // the engine must be bitwise indistinguishable from a cold engine on an
  // identical relation — same chains, same values.
  Rng rng(7400);
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t num_attrs = 3 + static_cast<uint32_t>(rng.UniformU64(3));
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(6));
    auto rows = RandomRows(&rng, num_attrs, domain, 30);
    Relation inc = RelationFromRows(num_attrs, rows);
    EntropyEngine engine(&inc);
    for (int k = 0; k < 3; ++k) {
      auto batch = RandomRows(&rng, num_attrs, domain + k, 20);
      ASSERT_TRUE(inc.AppendBatch(batch).ok());
      for (const auto& row : batch) rows.push_back(row);
    }
    Relation cold_r = RelationFromRows(num_attrs, rows);
    EntropyEngine cold(&cold_r);
    const uint64_t all_masks = (uint64_t{1} << num_attrs) - 1;
    // Identical query sequence on both engines, in the same order.
    std::vector<AttrSet> sequence;
    for (int q = 0; q < 24; ++q) {
      sequence.push_back(
          AttrSet::FromMask(1 + rng.UniformU64(all_masks - 1)));
    }
    for (AttrSet s : sequence) {
      ASSERT_EQ(engine.Entropy(s), cold.Entropy(s)) << s.mask();
    }
  }
}

TEST(EpochEngine, CatchUpThenParallelBatchIsCorrect) {
  // After an append, a threaded BatchEntropy must catch up once and fan
  // out safely (the TSan leg runs this test). The relation is large
  // enough that the batch's predicted work pays for the pool.
  Rng rng(7500);
  Relation r = RelationFromRows(5, RandomRows(&rng, 5, 4, 30000));
  EngineOptions opts;
  opts.num_threads = 4;
  opts.worker_pool = std::make_shared<WorkerPool>();
  EntropyEngine engine(&r, opts);
  engine.Entropy(AttrSet{0, 1});
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, 5, 4, 60)).ok());
  std::vector<AttrSet> sets;
  for (uint64_t mask = 1; mask < 32; ++mask) {
    sets.push_back(AttrSet::FromMask(mask));
  }
  std::vector<double> out = engine.BatchEntropy(sets);
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(out[i], EntropyOf(r, sets[i])) << i;
  }
  EXPECT_EQ(engine.Stats().epoch_catchups, 1u);
  EXPECT_GT(opts.worker_pool->NumThreads(), 0u);
}

TEST(EpochEngine, ThreadedCatchUpSoakIsBitwiseEqualToSerial) {
  // The parallel EXTEND fan-out (catch-up fans claimed entries out
  // level-by-level on the pool, as far as a level's stripped mass pays for
  // it) must publish a cache — and serve values — bitwise equal to the
  // serial catch-up. Two engines over identical relations run the same
  // prewarm/append/query schedule; one is fully serial (num_threads = 1),
  // the other may fan out on the pool (num_threads = 4). Every served
  // value must be EQ, and the threaded engine's final cache must equal the
  // cold replay exactly. The relations are sized so that every cached subset's
  // partition keeps ~60k stripped rows: the ten entries of level 2 and of
  // level 3 then pass the work gate, and the test checks that the pool
  // spawned. The TSan leg runs this file, so the fan-out's memory ordering
  // (level barriers, atomic counters, shared parent reads) is exercised
  // under the race detector.
  Rng rng(7600);
  constexpr uint32_t kAttrs = 5;
  for (int trial = 0; trial < 4; ++trial) {
    const uint32_t domain = 3 + static_cast<uint32_t>(rng.UniformU64(5));
    auto first = RandomRows(&rng, kAttrs, domain, 60000);
    Relation r_par = RelationFromRows(kAttrs, first);
    Relation r_ser = RelationFromRows(kAttrs, first);
    EngineOptions par_opts;
    par_opts.num_threads = 4;
    par_opts.worker_pool = std::make_shared<WorkerPool>();
    EntropyEngine par(&r_par, par_opts);
    EngineOptions ser_opts;
    ser_opts.num_threads = 1;
    EntropyEngine ser(&r_ser, ser_opts);
    const uint64_t all_masks = (uint64_t{1} << kAttrs) - 1;
    // Every subset's partition cached, so each catch-up claims whole
    // lattice levels (the fan-out's unit of work).
    std::vector<AttrSet> lattice;
    for (uint64_t mask = 1; mask <= all_masks; ++mask) {
      lattice.push_back(AttrSet::FromMask(mask));
    }
    par.PrewarmSubsets(lattice);
    ser.PrewarmSubsets(lattice);
    const uint32_t batches = 4;
    for (uint32_t k = 0; k < batches; ++k) {
      for (int q = 0; q < 12; ++q) {
        const AttrSet s =
            AttrSet::FromMask(1 + rng.UniformU64(all_masks - 1));
        ASSERT_EQ(par.Entropy(s), ser.Entropy(s))
            << "trial " << trial << " epoch " << k << " mask " << s.mask();
      }
      const auto batch =
          RandomRows(&rng, kAttrs, domain + k,
                     5 + static_cast<uint32_t>(rng.UniformU64(30)));
      ASSERT_TRUE(r_par.AppendBatch(batch).ok());
      ASSERT_TRUE(r_ser.AppendBatch(batch).ok());
    }
    ASSERT_EQ(par.Entropy(AttrSet::FromMask(all_masks)),
              ser.Entropy(AttrSet::FromMask(all_masks)));
    ASSERT_EQ(par.Stats().epoch_catchups, batches);
    EXPECT_EQ(par.Stats().partitions_extended + par.Stats().partitions_replayed,
              ser.Stats().partitions_extended + ser.Stats().partitions_replayed);
    EXPECT_EQ(par.Stats().catchup_dropped, 0u);
    EXPECT_GT(par_opts.worker_pool->NumThreads(), 0u) << "trial " << trial;
    VerifyCachedPartitionsAgainstColdReplay(&par, r_par);
  }
}

// --- Concurrent readers under ingestion ----------------------------------

TEST(EpochConcurrency, PinnedReaderIsBitwiseColdWhileNextEpochLands) {
  // The concurrent-oracle extension of the bitwise property, run
  // deterministically: a reader pinned at epoch k sees EXACTLY the cold
  // answer at epoch k — before, during, and after epoch k+1 is published
  // into the caches. Phase A queries land between the append and the
  // catch-up (the pinned generation is still the published one, so reads
  // cache and evolve exactly like a cold engine over the frozen prefix);
  // phase B queries land after publish (the pinned generation was swept,
  // so every read recomputes from scratch — bitwise equal to a fresh cold
  // engine's first compute).
  Rng rng(7700);
  for (int trial = 0; trial < 5; ++trial) {
    const uint32_t num_attrs = 3 + static_cast<uint32_t>(rng.UniformU64(3));
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(6));
    const uint32_t n0 = 20 + static_cast<uint32_t>(rng.UniformU64(40));
    auto rows = RandomRows(&rng, num_attrs, domain, n0);
    Relation r = RelationFromRows(num_attrs, rows);
    Relation prefix = RelationFromRows(num_attrs, rows);  // frozen copy
    EntropyEngine engine(&r);
    EntropyEngine cold(&prefix);

    const EpochPin pin = engine.Pin();
    ASSERT_EQ(pin.rows, n0);
    ASSERT_EQ(pin.epoch, 0u);
    ASSERT_TRUE(
        r.AppendBatch(RandomRows(&rng, num_attrs, domain + 3,
                                 10 + static_cast<uint32_t>(
                                          rng.UniformU64(30))))
            .ok());

    const uint64_t all_masks = (uint64_t{1} << num_attrs) - 1;
    // Phase A: epoch 1 exists but is unpublished. EntropyAt never catches
    // up, and both engines evolve their caches identically from empty.
    for (int q = 0; q < 16; ++q) {
      const AttrSet s = AttrSet::FromMask(1 + rng.UniformU64(all_masks - 1));
      ASSERT_EQ(engine.EntropyAt(s, pin), cold.Entropy(s)) << s.ToString();
    }
    ASSERT_EQ(engine.Pin().epoch, 0u);

    // Epoch 1 lands: claims and extends phase A's cached partitions,
    // sweeps the pinned generation, publishes the new stamp.
    engine.CatchUp();
    ASSERT_EQ(engine.Pin().epoch, 1u);
    ASSERT_EQ(engine.Pin().rows, r.NumRows());
    ASSERT_EQ(engine.Stats().epoch_catchups, 1u);

    // Phase B: the same pin still serves the cold answer at its epoch.
    for (int q = 0; q < 8; ++q) {
      const AttrSet s = AttrSet::FromMask(1 + rng.UniformU64(all_masks - 1));
      EntropyEngine fresh(&prefix);
      ASSERT_EQ(engine.EntropyAt(s, pin), fresh.Entropy(s)) << s.ToString();
    }
    // And the published epoch serves the grown relation exactly.
    for (uint64_t mask = 1; mask <= all_masks; mask += 3) {
      const AttrSet s = AttrSet::FromMask(mask);
      EXPECT_EQ(engine.Entropy(s), EntropyOf(r, s)) << mask;
    }
    VerifyCachedPartitionsAgainstColdReplay(&engine, r);
  }
}

TEST(EpochConcurrency, PinnedReadersStayExactWhileAppenderPublishes) {
  // The racy form the TSan leg runs: N reader threads pin and query while
  // one appender lands batches and runs catch-up after each, and readers
  // race that catch-up cooperatively. Every observed value
  // must match the cold reference at the rows the reader was pinned to —
  // no torn reads, no value from a half-published epoch.
  Rng rng(7800);
  const uint32_t num_attrs = 4;
  const uint32_t domain = 3;
  const uint32_t kBatches = 5;
  auto rows = RandomRows(&rng, num_attrs, domain, 80);
  std::vector<std::vector<std::vector<uint32_t>>> batches;
  for (uint32_t k = 0; k < kBatches; ++k) {
    batches.push_back(RandomRows(&rng, num_attrs, domain + k, 40));
  }
  // Cold reference at every publishable row count (appends are atomic, so
  // a pin can only ever name a batch boundary).
  std::unordered_map<uint64_t, std::vector<double>> expected;
  {
    auto prefix = rows;
    auto record = [&] {
      Relation cold = RelationFromRows(num_attrs, prefix);
      std::vector<double> vals(16, 0.0);
      for (uint64_t mask = 1; mask < 16; ++mask) {
        vals[mask] = EntropyOf(cold, AttrSet::FromMask(mask));
      }
      expected[prefix.size()] = std::move(vals);
    };
    record();
    for (const auto& batch : batches) {
      prefix.insert(prefix.end(), batch.begin(), batch.end());
      record();
    }
  }

  Relation r = RelationFromRows(num_attrs, rows);
  EntropyEngine engine(&r);
  engine.Entropy(AttrSet{0, 1});  // something cached for catch-up to claim

  struct Obs {
    uint64_t rows;
    uint32_t mask;
    double h;
  };
  constexpr int kReaders = 4;
  std::vector<std::vector<Obs>> observed(kReaders);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&engine, &observed, &done, t] {
      Rng trng(9000 + static_cast<uint64_t>(t));
      auto& out = observed[static_cast<size_t>(t)];
      while (!done.load(std::memory_order_acquire)) {
        const EpochPin pin = engine.Pin();
        for (int q = 0; q < 3; ++q) {
          const uint32_t mask =
              1 + static_cast<uint32_t>(trng.UniformU64(15));
          out.push_back({pin.rows, mask,
                         engine.EntropyAt(AttrSet::FromMask(mask), pin)});
        }
        // Cooperative racer: readers may run catch-up themselves; the
        // try-lock makes the race with the appender's catch-up benign.
        if (trng.Bernoulli(0.25)) engine.CatchUp();
      }
    });
  }
  for (const auto& batch : batches) {
    ASSERT_TRUE(r.AppendBatch(batch).ok());
    engine.CatchUp();
    std::this_thread::sleep_for(std::chrono::microseconds(400));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  // Validate on the main thread (gtest assertions stay single-threaded).
  size_t checked = 0;
  for (const auto& per_thread : observed) {
    for (const Obs& o : per_thread) {
      auto it = expected.find(o.rows);
      ASSERT_NE(it, expected.end()) << "pin at non-boundary rows " << o.rows;
      EXPECT_EQ(o.h, it->second[o.mask])
          << "rows " << o.rows << " mask " << o.mask;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  // The engine lands on the final epoch and serves it exactly.
  engine.CatchUp();
  EXPECT_EQ(engine.Pin().rows, r.NumRows());
  const std::vector<double>& final_vals = expected.at(r.NumRows());
  for (uint64_t mask = 1; mask < 16; ++mask) {
    EXPECT_EQ(engine.Entropy(AttrSet::FromMask(mask)), final_vals[mask])
        << mask;
  }
}

TEST(EpochConcurrency, PinnedAllAttributeEntropyOfASetWhileNextEpochLands) {
  // A duplicate-free relation answers H(all attributes) from its
  // distinct-prefix watermark. Readers pinned at epoch k must still read
  // exactly EntropyOf over the first rows-at-k rows while deduped appends
  // land and catch-up publishes epoch k+1, and no all-attribute partition
  // may ever be cached.
  Rng rng(7900);
  const uint32_t num_attrs = 4;
  std::vector<uint64_t> dims(num_attrs, 2);
  RelationBuilder b(Schema::MakeSynthetic(dims).value());
  for (const auto& row : RandomRows(&rng, num_attrs, 5, 120)) b.AddRow(row);
  Relation r = std::move(b).Build(/*dedupe=*/true);
  std::vector<std::vector<std::vector<uint32_t>>> batches;
  for (uint32_t k = 0; k < 6; ++k) {
    batches.push_back(RandomRows(&rng, num_attrs, 5 + k, 40));
  }
  const AttrSet all = r.schema().AllAttrs();
  EntropyEngine engine(&r);
  engine.Entropy(AttrSet{0, 1});  // something cached for catch-up to claim

  struct Obs {
    uint64_t rows;
    double h;
    uint64_t distinct;
  };
  constexpr int kReaders = 3;
  std::vector<std::vector<Obs>> observed(kReaders);
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&engine, &observed, &done, &started, all, t] {
      auto& out = observed[static_cast<size_t>(t)];
      while (!done.load(std::memory_order_acquire)) {
        const EpochPin pin = engine.Pin();
        out.push_back({pin.rows, engine.EntropyAt(all, pin),
                       engine.PartitionAt(all, pin)->NumDistinct(pin.rows)});
        if (out.size() == 1) started.fetch_add(1);
        if (t == 0) engine.CatchUp();  // race the appender's catch-up
      }
    });
  }
  // Every reader holds a pin before the first append lands.
  while (started.load() < kReaders) std::this_thread::yield();
  for (const auto& batch : batches) {
    // EXPECT: an early return would leave the readers unjoined.
    EXPECT_TRUE(r.AppendBatch(batch, /*dedupe=*/true).ok());
    engine.CatchUp();
    std::this_thread::sleep_for(std::chrono::microseconds(400));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  ASSERT_EQ(r.DistinctPrefixRows(), r.NumRows());

  // Rows never change, so the reference at any pinned row count is the
  // final relation's prefix.
  std::unordered_map<uint64_t, double> expected;
  size_t checked = 0;
  for (const auto& per_thread : observed) {
    for (const Obs& o : per_thread) {
      auto it = expected.find(o.rows);
      if (it == expected.end()) {
        RelationBuilder prefix(r.schema());
        for (uint64_t i = 0; i < o.rows; ++i) prefix.AddRowPtr(r.Row(i));
        const Relation cold = std::move(prefix).Build(/*dedupe=*/false);
        it = expected.emplace(o.rows, EntropyOf(cold, all)).first;
      }
      EXPECT_EQ(o.h, it->second) << "rows " << o.rows;
      EXPECT_EQ(o.distinct, o.rows);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  engine.CatchUp();
  EXPECT_EQ(engine.Entropy(all), EntropyOf(r, all));
  EXPECT_FALSE(engine.CachedPartitionInfo(all, nullptr, nullptr));
}

TEST(EpochEngine, ExtensionAndReplayPathsBothRun) {
  // Sanity on the stats: an engine with a stable cache should delta-extend
  // its chains; an engine whose budget evicted a cached entry's ancestors
  // must replay that entry's chain at catch-up. (Exact counts are
  // implementation detail; "the path ran" is the invariant worth pinning.)
  Rng rng(7600);
  auto rows = RandomRows(&rng, 5, 4, 80);
  Relation r1 = RelationFromRows(5, rows);
  EntropyEngine e1(&r1);
  e1.Entropy(AttrSet{0, 1, 2});
  ASSERT_TRUE(r1.AppendBatch(RandomRows(&rng, 5, 4, 40)).ok());
  e1.Entropy(AttrSet{0, 1, 2});
  EXPECT_GT(e1.Stats().partitions_extended, 0u);

  // The budget holds exactly the {0,1,2,3} partition, before and after
  // the append (its bytes measured on unbounded probe engines over both
  // row sets; kernels copy out at exact size, so a cold build and a chain
  // replay take the same bytes). The prewarm charges every prefix of the
  // chain before the final partition and the arbiter evicts them
  // least-recent first, so catch-up finds no ancestor to extend from and
  // replays; the replayed partition then fits the budget and survives.
  const auto appended = RandomRows(&rng, 5, 4, 40);
  auto final_bytes = [](const std::vector<std::vector<uint32_t>>& probe_rows,
                        size_t* bytes) {
    Relation probe_rel = RelationFromRows(5, probe_rows);
    EntropyEngine probe(&probe_rel);
    probe.PrewarmSubsets({AttrSet{0, 1, 2, 3}});
    std::shared_ptr<const Partition> p;
    ASSERT_TRUE(probe.CachedPartitionInfo(AttrSet{0, 1, 2, 3}, nullptr, &p));
    *bytes = p->MemoryBytes();
  };
  std::vector<std::vector<uint32_t>> all_rows = rows;
  all_rows.insert(all_rows.end(), appended.begin(), appended.end());
  size_t before_bytes = 0, after_bytes = 0;
  final_bytes(rows, &before_bytes);
  final_bytes(all_rows, &after_bytes);
  Relation r2 = RelationFromRows(5, rows);
  EngineOptions tiny;
  tiny.cache_budget_bytes = std::max(before_bytes, after_bytes);
  EntropyEngine e2(&r2, tiny);
  e2.PrewarmSubsets({AttrSet{0, 1, 2, 3}});
  ASSERT_EQ(e2.PartitionCacheSize(), 1u);
  ASSERT_TRUE(e2.CachedPartitionInfo(AttrSet{0, 1, 2, 3}, nullptr, nullptr));
  ASSERT_GT(e2.Stats().evictions, 0u);
  ASSERT_TRUE(r2.AppendBatch(appended).ok());
  e2.Entropy(AttrSet{0, 1, 2, 3});
  EXPECT_GT(e2.Stats().partitions_replayed, 0u);
  // The replayed entry is served bit-identically to a cold chain replay.
  std::vector<uint32_t> chain;
  std::shared_ptr<const Partition> replayed;
  ASSERT_TRUE(e2.CachedPartitionInfo(AttrSet{0, 1, 2, 3}, &chain, &replayed));
  VerifyCachedPartitionsAgainstColdReplay(&e2, r2);
}

}  // namespace
}  // namespace ajd
