// Tests for the columnar entropy engine (engine/): ColumnStore dense
// coding, stripped-partition algebra, randomized equivalence of
// EntropyEngine against the legacy per-call EntropyOf, cache/batch/budget
// behavior, and cross-consumer reuse through an AnalysisSession.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/groupwise.h"
#include "discovery/miner.h"
#include "engine/analysis_session.h"
#include "engine/column_store.h"
#include "engine/entropy_engine.h"
#include "engine/partition.h"
#include "engine/refine_kernels.h"
#include "engine/worker_pool.h"
#include "info/entropy.h"
#include "random/rng.h"
#include "relation/ops.h"
#include "test_util.h"

namespace ajd {
namespace {

// A random relation kept as a multiset (duplicate rows preserved), so the
// empirical distribution is genuinely weighted.
Relation RandomMultisetRelation(Rng* rng, uint32_t num_attrs, uint32_t domain,
                                uint32_t rows) {
  std::vector<uint64_t> dims(num_attrs, domain);
  Schema schema = Schema::MakeSynthetic(dims).value();
  RelationBuilder b(schema);
  std::vector<uint32_t> row(num_attrs);
  for (uint32_t i = 0; i < rows; ++i) {
    for (uint32_t a = 0; a < num_attrs; ++a) {
      row[a] = static_cast<uint32_t>(rng->UniformU64(domain));
    }
    b.AddRow(row);
  }
  return std::move(b).Build(/*dedupe=*/false);
}

TEST(ColumnStore, DenseCodesPreserveEquality) {
  Rng rng(900);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 5, 60);
  ColumnStore store(&r);
  ASSERT_EQ(store.NumAttrs(), r.NumAttrs());
  ASSERT_EQ(store.NumRows(), r.NumRows());
  for (uint32_t a = 0; a < r.NumAttrs(); ++a) {
    const Column& col = store.column(a);
    ASSERT_EQ(col.codes.size(), r.NumRows());
    for (uint64_t i = 0; i < r.NumRows(); ++i) {
      EXPECT_LT(col.codes[i], col.cardinality);
      for (uint64_t j = i + 1; j < r.NumRows(); ++j) {
        EXPECT_EQ(r.At(i, a) == r.At(j, a), col.codes[i] == col.codes[j]);
      }
    }
  }
}

TEST(ColumnStore, DensifiesSparseCodes) {
  // Raw codes far above the row count force the hash-map remap path.
  Schema s = Schema::Make({{"A", 0}}).value();
  Relation r = Relation::FromRows(
                   s, {{4000000000u}, {7u}, {4000000000u}, {123456789u}})
                   .value();
  ColumnStore store(&r);
  EXPECT_EQ(store.column(0).cardinality, 3u);
}

TEST(Partition, TrivialAndColumnBasics) {
  EXPECT_EQ(Partition::Trivial(0).NumBlocks(), 0u);
  EXPECT_EQ(Partition::Trivial(1).NumBlocks(), 0u);  // singleton stripped
  Partition all = Partition::Trivial(5);
  ASSERT_EQ(all.NumBlocks(), 1u);
  EXPECT_EQ(all.BlockSize(0), 5u);
  EXPECT_NEAR(all.EntropyNats(5), 0.0, 1e-12);

  Column col = MakeOwnedColumn({0, 1, 0, 2, 1, 0}, 3);
  Partition p = Partition::OfColumn(col);
  // Code 0 has 3 rows, code 1 has 2; code 2 is a stripped singleton.
  ASSERT_EQ(p.NumBlocks(), 2u);
  EXPECT_EQ(p.NumStrippedRows(), 5u);
  // H = ln 6 - (3 ln 3 + 2 ln 2) / 6.
  EXPECT_NEAR(p.EntropyNats(6),
              std::log(6.0) - (3 * std::log(3.0) + 2 * std::log(2.0)) / 6.0,
              1e-12);
}

TEST(Partition, RefinementMatchesDirectGrouping) {
  Rng rng(901);
  for (int trial = 0; trial < 20; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 40);
    ColumnStore store(&r);
    Partition p01 =
        Partition::OfColumn(store.column(0)).RefinedBy(store.column(1));
    // Refining {0} by column 1 must give the grouping of {0,1}: compare
    // entropies against the legacy path (same formula, same data).
    EXPECT_EQ(p01.EntropyNats(r.NumRows()), EntropyOf(r, AttrSet{0, 1}));
    Partition p012 = p01.RefinedBy(store.column(2));
    EXPECT_EQ(p012.EntropyNats(r.NumRows()), EntropyOf(r, AttrSet{0, 1, 2}));
  }
}

TEST(EntropyEngine, RandomizedEquivalenceWithEntropyOf) {
  Rng rng(902);
  for (int trial = 0; trial < 25; ++trial) {
    uint32_t num_attrs = 2 + static_cast<uint32_t>(rng.UniformU64(4));
    uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(5));
    uint32_t rows = 10 + static_cast<uint32_t>(rng.UniformU64(80));
    const bool is_set = rng.Bernoulli(0.5);
    Relation r = is_set ? testing_util::RandomTestRelation(&rng, num_attrs,
                                                           domain, rows)
                        : RandomMultisetRelation(&rng, num_attrs, domain, rows);
    EntropyEngine engine(&r);
    const uint32_t limit = uint32_t{1} << num_attrs;
    // Every subset, queried in random order (exercises subset reuse both
    // up and down the lattice), including empty and full sets.
    std::vector<uint32_t> masks(limit);
    for (uint32_t m = 0; m < limit; ++m) masks[m] = m;
    rng.Shuffle(&masks);
    for (uint32_t m : masks) {
      AttrSet attrs = AttrSet::FromMask(m);
      EXPECT_EQ(engine.Entropy(attrs), EntropyOf(r, attrs))
          << "attrs=" << attrs.ToString() << " trial=" << trial;
    }
    // Re-query everything: all hits, same values.
    for (uint32_t m : masks) {
      AttrSet attrs = AttrSet::FromMask(m);
      EXPECT_EQ(engine.Entropy(attrs), EntropyOf(r, attrs));
    }
    EngineStats stats = engine.Stats();
    EXPECT_GT(stats.hits, 0u);
    // A set answers H(all attributes) = ln N without refining, so with two
    // attributes nothing is left to refine from a cached base.
    if (num_attrs > 2 || !is_set) {
      EXPECT_GT(stats.base_reuses, 0u) << "trial=" << trial;
    }
    if (is_set) {
      EXPECT_FALSE(engine.CachedPartitionInfo(r.schema().AllAttrs(), nullptr,
                                              nullptr))
          << "trial=" << trial;
    }
  }
}

TEST(EntropyEngine, EmptyAndDegenerateInputs) {
  Schema s = Schema::Make({{"A", 2}, {"B", 2}}).value();
  Relation empty = Relation::FromRows(s, {}).value();
  EntropyEngine engine(&empty);
  EXPECT_EQ(engine.Entropy(AttrSet{0, 1}), 0.0);
  EXPECT_EQ(engine.Entropy(AttrSet()), 0.0);

  Relation one = Relation::FromRows(s, {{1, 0}}).value();
  EntropyEngine engine1(&one);
  EXPECT_NEAR(engine1.Entropy(AttrSet{0, 1}), 0.0, 1e-12);
}

TEST(EntropyEngine, BatchEntropyMatchesSerialAndUsesThreads) {
  // A batch fans out only as far as its predicted work pays for the pool,
  // so the relation is sized for that: the five cold four-attribute misses
  // alone price at two participants' worth of refinement steps.
  Rng rng(903);
  Relation r = RandomMultisetRelation(&rng, 5, 4, 30000);
  EngineOptions options;
  options.num_threads = 4;  // a real pool regardless of the host
  options.worker_pool = std::make_shared<WorkerPool>();
  EntropyEngine engine(&r, options);
  std::vector<AttrSet> sets;
  for (uint32_t m = 0; m < 32; ++m) sets.push_back(AttrSet::FromMask(m));
  std::vector<double> batch = engine.BatchEntropy(sets);
  ASSERT_EQ(batch.size(), sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(batch[i], EntropyOf(r, sets[i]));
  }
  EXPECT_EQ(engine.Stats().queries, 31u);  // empty set short-circuits
  EXPECT_GT(options.worker_pool->NumThreads(), 0u);
}

TEST(EntropyEngine, CmiMatchesLegacyCalculatorSemantics) {
  Rng rng(904);
  for (int trial = 0; trial < 15; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 60);
    EntropyEngine engine(&r);
    for (int k = 0; k < 12; ++k) {
      AttrSet a = AttrSet::FromMask(rng.UniformU64(16));
      AttrSet b = AttrSet::FromMask(rng.UniformU64(16));
      AttrSet c = AttrSet::FromMask(rng.UniformU64(16));
      double via_engine = engine.ConditionalMutualInformation(a, b, c);
      double via_entropy_of =
          EntropyOf(r, a.Union(c)) + EntropyOf(r, b.Union(c)) -
          EntropyOf(r, a.Union(b).Union(c)) - EntropyOf(r, c);
      EXPECT_GE(via_engine, 0.0);
      EXPECT_EQ(via_engine, std::max(via_entropy_of, 0.0));
    }
  }
}

TEST(EntropyEngine, PartitionBudgetEvicts) {
  Rng rng(905);
  Relation r = testing_util::RandomTestRelation(&rng, 6, 3, 300);
  EngineOptions options;
  options.cache_budget_bytes = 4096;  // deliberately tiny
  EntropyEngine engine(&r, options);
  for (uint32_t m = 1; m < 64; ++m) {
    engine.Entropy(AttrSet::FromMask(m));
  }
  EXPECT_LE(engine.PartitionBytes(), options.cache_budget_bytes);
  EXPECT_GT(engine.Stats().evictions, 0u);
  // Entropy values stay cached and correct even with partitions evicted.
  for (uint32_t m = 1; m < 64; ++m) {
    AttrSet attrs = AttrSet::FromMask(m);
    EXPECT_EQ(engine.Entropy(attrs), EntropyOf(r, attrs));
  }
}

TEST(EntropyEngine, StandaloneBudgetHoldsAcrossCatchUp) {
  // A standalone engine evicts through its own single-engine arbiter, and
  // catch-up's publish charges the extended generation there too: the
  // budget must hold through the append and every query after it.
  Rng rng(907);
  Relation r = RandomMultisetRelation(&rng, 6, 3, 300);
  EngineOptions options;
  options.cache_budget_bytes = 4096;  // deliberately tiny
  EntropyEngine engine(&r, options);
  for (uint32_t m = 1; m < 64; ++m) {
    engine.Entropy(AttrSet::FromMask(m));
    EXPECT_LE(engine.PartitionBytes(), options.cache_budget_bytes);
  }
  std::vector<std::vector<uint32_t>> batch(120, std::vector<uint32_t>(6));
  for (auto& row : batch) {
    for (uint32_t& v : row) v = static_cast<uint32_t>(rng.UniformU64(3));
  }
  ASSERT_TRUE(r.AppendBatch(batch).ok());
  engine.CatchUp();
  EXPECT_LE(engine.PartitionBytes(), options.cache_budget_bytes);
  const EngineStats after_catchup = engine.Stats();
  EXPECT_EQ(after_catchup.epoch_catchups, 1u);
  EXPECT_GT(after_catchup.partitions_extended +
                after_catchup.partitions_replayed,
            0u);
  for (uint32_t m = 1; m < 64; ++m) {
    AttrSet attrs = AttrSet::FromMask(m);
    EXPECT_EQ(engine.Entropy(attrs), EntropyOf(r, attrs))
        << attrs.ToString();
    EXPECT_LE(engine.PartitionBytes(), options.cache_budget_bytes);
  }
  EXPECT_GT(engine.Stats().evictions, 0u);
}

TEST(AnalysisSession, MinerAndAnalysisShareOneEngine) {
  Rng rng(906);
  Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 120);

  AnalysisSession session;
  MinerReport mined = MineJoinTree(&session, r).value();
  EXPECT_EQ(session.NumRelations(), 1u);

  EngineStats after_mining = session.TotalStats();
  EXPECT_GT(after_mining.queries, 0u);
  size_t cached_after_mining = session.EngineFor(r).CacheSize();
  EXPECT_GT(cached_after_mining, 0u);

  AjdAnalysis analysis = AnalyzeAjd(&session, r, mined.tree).value();
  EngineStats after_analysis = session.TotalStats();
  // The analysis re-walks terms the miner already evaluated: the hit
  // count must strictly grow, and the J-measures must agree.
  EXPECT_GT(after_analysis.hits, after_mining.hits);
  EXPECT_EQ(analysis.j, mined.j);
  EXPECT_EQ(session.NumRelations(), 1u);

  // The same tree analyzed without the session gives identical numbers.
  AjdAnalysis cold = AnalyzeAjd(r, mined.tree).value();
  EXPECT_EQ(cold.j, analysis.j);
  EXPECT_EQ(cold.sum_dfs_cmi, analysis.sum_dfs_cmi);
  EXPECT_EQ(cold.loss.rho, analysis.loss.rho);
}

TEST(AnalysisSession, GroupwiseEngineCmiMatchesMixture) {
  Rng rng(907);
  for (int trial = 0; trial < 10; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 3, 4, 50);
    AnalysisSession session;
    GroupwiseMvdReport report =
        AnalyzeMvdGroupwise(&session, r, AttrSet{0}, AttrSet{1}, AttrSet{2})
            .value();
    // Eq. 336: the engine-side global CMI equals the groupwise mixture.
    double engine_cmi = session.EngineFor(r).ConditionalMutualInformation(
        AttrSet{0}, AttrSet{1}, AttrSet{2});
    EXPECT_NEAR(engine_cmi, report.mixture_cmi, 1e-9);
    // The four Eq. (4) terms are now cached for whoever uses the session
    // next.
    EXPECT_GE(session.EngineFor(r).CacheSize(), 4u);
  }
}

TEST(AnalysisSession, ParallelMinerMatchesSerial) {
  // A parallel-batch session fans the miner's candidate batches out on the
  // pool (a serial engine computes them inline); the mined tree and scores
  // must match the serial run bit for bit.
  Rng rng(909);
  Relation r = testing_util::RandomTestRelation(&rng, 6, 3, 150);
  EngineOptions serial;
  serial.num_threads = 1;
  AnalysisSession serial_session(serial);
  EngineOptions parallel;
  parallel.num_threads = 4;
  AnalysisSession parallel_session(parallel);
  MinerReport a = MineJoinTree(&serial_session, r).value();
  MinerReport b = MineJoinTree(&parallel_session, r).value();
  ASSERT_EQ(a.tree.NumNodes(), b.tree.NumNodes());
  for (uint32_t v = 0; v < a.tree.NumNodes(); ++v) {
    EXPECT_EQ(a.tree.bag(v), b.tree.bag(v));
  }
  EXPECT_EQ(a.j, b.j);
}

TEST(EntropyEngine, PrewarmSubsetsSeedsPartitionsAndPreservesValues) {
  Rng rng(911);
  Relation r = testing_util::RandomTestRelation(&rng, 5, 4, 120);
  EntropyEngine engine(&r);
  // Prewarm materializes the full partition of each set (plain Entropy
  // would take the count-only pass on the last step), and ignores
  // empty sets and duplicates.
  std::vector<AttrSet> seeds = {AttrSet{0}, AttrSet{0, 1}, AttrSet{0, 1},
                                AttrSet()};
  engine.PrewarmSubsets(seeds);
  EXPECT_GE(engine.PartitionCacheSize(), 2u);
  // Values answered after the prewarm match the reference path.
  for (AttrSet s : {AttrSet{0}, AttrSet{0, 1}, AttrSet{0, 1, 2}}) {
    EXPECT_EQ(engine.Entropy(s), EntropyOf(r, s));
  }
  // A superset query now refines from the warmed ancestor instead of
  // rebuilding from a raw column.
  EngineStats before = engine.Stats();
  engine.Entropy(AttrSet{0, 1, 3});
  EngineStats after = engine.Stats();
  EXPECT_GT(after.base_reuses, before.base_reuses);
}

TEST(EntropyEngine, PrewarmedEntropyValueIsUnchanged) {
  // Prewarming after a value is cached must not overwrite it, and
  // prewarming before must yield the same number the count-only path
  // would report, bit for bit.
  Rng rng(912);
  Relation r = RandomMultisetRelation(&rng, 4, 3, 200);
  EntropyEngine cold(&r);
  double count_only = cold.Entropy(AttrSet{0, 1, 2});
  EntropyEngine warmed(&r);
  warmed.PrewarmSubsets({AttrSet{0, 1, 2}});
  EXPECT_EQ(warmed.Entropy(AttrSet{0, 1, 2}), count_only);
  cold.PrewarmSubsets({AttrSet{0, 1, 2}});
  EXPECT_EQ(cold.Entropy(AttrSet{0, 1, 2}), count_only);
}

TEST(AnalysisSession, ReleaseDropsTheEngine) {
  Rng rng(913);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 50);
  AnalysisSession session;
  session.EngineFor(r).Entropy(AttrSet{0, 1});
  EXPECT_EQ(session.NumRelations(), 1u);
  EXPECT_TRUE(session.Release(r));
  EXPECT_EQ(session.NumRelations(), 0u);
  EXPECT_FALSE(session.Release(r));  // nothing left to drop
  // A fresh engine serves the relation again after the release.
  EXPECT_EQ(session.EngineFor(r).Entropy(AttrSet{0, 1}),
            EntropyOf(r, AttrSet{0, 1}));
}

// --- Refinement kernel suite (engine/refine_kernels.h) ------------------

// Exact partition equality: block count, block boundaries, block order,
// and row order — the contract every kernel strategy must honor.
void ExpectSamePartition(const Partition& want, const Partition& got,
                         const std::string& what) {
  ASSERT_EQ(want.NumBlocks(), got.NumBlocks()) << what;
  ASSERT_EQ(want.NumStrippedRows(), got.NumStrippedRows()) << what;
  for (uint32_t b = 0; b < want.NumBlocks(); ++b) {
    ASSERT_EQ(want.BlockSize(b), got.BlockSize(b)) << what << " block " << b;
    const uint32_t* pw = want.BlockBegin(b);
    const uint32_t* pg = got.BlockBegin(b);
    for (uint32_t i = 0; i < want.BlockSize(b); ++i) {
      ASSERT_EQ(pw[i], pg[i]) << what << " block " << b << " row " << i;
    }
  }
}

// A synthetic dense column; skew > 0 concentrates mass on low codes.
Column SyntheticColumn(Rng* rng, uint32_t rows, uint32_t cardinality,
                       double skew) {
  std::vector<uint32_t> codes(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    if (skew == 0.0) {
      codes[i] = static_cast<uint32_t>(rng->UniformU64(cardinality));
    } else {
      const double u = rng->NextDouble();
      uint32_t c = static_cast<uint32_t>(std::pow(u, 1.0 + skew) *
                                         cardinality);
      codes[i] = c >= cardinality ? cardinality - 1 : c;
    }
  }
  return MakeOwnedColumn(std::move(codes), cardinality);
}

TEST(RefineKernels, AllStrategiesMatchScalarAcrossCardinalityAndSkew) {
  Rng rng(920);
  const uint32_t kRows = 600;
  for (uint32_t card :
       {2u, 7u, 64u, 300u, 5000u, kRows, 3 * kRows}) {
    for (double skew : {0.0, 2.5}) {
      Column col = SyntheticColumn(&rng, kRows, card, skew);
      for (uint32_t base_card : {1u, 5u, 40u}) {
        Partition base =
            base_card == 1
                ? Partition::Trivial(kRows)
                : Partition::OfColumn(
                      SyntheticColumn(&rng, kRows, base_card, 0.0));
        const std::string what = "card=" + std::to_string(card) +
                                 " skew=" + std::to_string(skew) +
                                 " base=" + std::to_string(base_card);
        Partition ref = base.RefinedBy(col, RefineKernel::kDense);
        const double ref_h =
            base.RefinedEntropy(col, kRows, RefineKernel::kDense);
        for (RefineKernel k :
             {RefineKernel::kSort, RefineKernel::kAuto}) {
          ExpectSamePartition(ref, base.RefinedBy(col, k), what);
          // Entropies must agree BITWISE: every kernel accumulates the
          // c ln c terms in the same (first-occurrence) order.
          EXPECT_EQ(ref_h, base.RefinedEntropy(col, kRows, k)) << what;
        }
      }
    }
  }
}

TEST(RefineKernels, ChainEndingInCountOnlyStepMatchesFullRefinement) {
  // Every cache miss is a chain of single-column RefinedBy steps whose last
  // step only counts (RefinedEntropy). That count-only step must report the
  // entropy of the partition the full chain would have materialized, and
  // the result must not depend on the order the chain takes the columns in.
  Rng rng(921);
  const uint32_t kRows = 500;
  for (int trial = 0; trial < 10; ++trial) {
    const size_t k = 2 + static_cast<size_t>(rng.UniformU64(3));  // 2..4
    std::vector<Column> cols;
    for (size_t j = 0; j < k; ++j) {
      const uint32_t card = 2 + static_cast<uint32_t>(rng.UniformU64(7));
      cols.push_back(SyntheticColumn(&rng, kRows, card,
                                     rng.Bernoulli(0.5) ? 0.0 : 2.0));
    }
    Partition base =
        Partition::OfColumn(SyntheticColumn(&rng, kRows, 6, 0.0));
    const std::string what = "trial=" + std::to_string(trial) +
                             " k=" + std::to_string(k);

    Partition penultimate = base;
    for (size_t j = 0; j + 1 < k; ++j) {
      penultimate = penultimate.RefinedBy(cols[j]);
    }
    const Partition full = penultimate.RefinedBy(cols[k - 1]);
    const double count_only = penultimate.RefinedEntropy(cols[k - 1], kRows);
    EXPECT_EQ(count_only, full.EntropyNats(kRows)) << what;

    // The reversed chain groups rows identically: same stripped mass and
    // block count, and (whatever the block order) the same entropy bits.
    Partition reversed = base;
    for (size_t j = k; j-- > 0;) reversed = reversed.RefinedBy(cols[j]);
    EXPECT_EQ(full.NumStrippedRows(), reversed.NumStrippedRows()) << what;
    EXPECT_EQ(full.NumBlocks(), reversed.NumBlocks()) << what;
    EXPECT_EQ(full.EntropyNats(kRows), reversed.EntropyNats(kRows))
        << what;
  }
}

TEST(Partition, OfColumnNearKeySortPathMatchesCountingConstruction) {
  // Dense-coded near-key columns (cardinality >= rows) take the sort path;
  // for dense codes (assigned in first-occurrence order, as ColumnStore
  // produces them) it must equal refining the trivial partition — which is
  // provably what the counting construction emits.
  Rng rng(922);
  const uint32_t kRows = 400;
  std::vector<uint32_t> codes(kRows);
  uint32_t cardinality = 0;
  std::unordered_map<uint64_t, uint32_t> dense;
  for (uint32_t i = 0; i < kRows; ++i) {
    // ~70% unique raw values, densified first-occurrence.
    const uint64_t raw = rng.UniformU64(3 * kRows);
    auto [it, inserted] = dense.emplace(raw, cardinality);
    if (inserted) ++cardinality;
    codes[i] = it->second;
  }
  cardinality = std::max(cardinality, kRows);  // force sort path
  ASSERT_GE(cardinality, kRows);
  Column col = MakeOwnedColumn(std::move(codes), cardinality);
  Partition via_of_column = Partition::OfColumn(col);
  Partition via_refine =
      Partition::Trivial(kRows).RefinedBy(col, RefineKernel::kDense);
  ExpectSamePartition(via_refine, via_of_column, "near-key OfColumn");
}

TEST(EntropyEngine, TinyBudgetEvictionPreservesValues) {
  Rng rng(924);
  Relation r = RandomMultisetRelation(&rng, 6, 3, 300);
  // A tiny partition budget keeps the cache under constant eviction, so
  // misses keep losing their best bases mid-run. Values must still match
  // the reference path exactly.
  EngineOptions tiny;
  tiny.cache_budget_bytes = 2048;
  EntropyEngine pressured(&r, tiny);
  for (uint32_t m = 1; m < 64; ++m) {
    AttrSet attrs = AttrSet::FromMask(m);
    const double want = EntropyOf(r, attrs);
    EXPECT_EQ(pressured.Entropy(attrs), want) << attrs.ToString();
  }
  EXPECT_GT(pressured.Stats().evictions, 0u);
  // No step refines by more than one column at a time.
  EXPECT_EQ(pressured.Stats().fused_refinements, 0u);
}

// --- EntropyEngine::PartitionAt -----------------------------------------

// The stripped grouping as sorted row lists: what a partition means,
// independent of the block order its build chain produced.
std::vector<std::vector<uint32_t>> CanonicalBlocks(const Partition& p) {
  std::vector<std::vector<uint32_t>> blocks;
  for (uint32_t b = 0; b < p.NumBlocks(); ++b) {
    blocks.emplace_back(p.BlockBegin(b), p.BlockEnd(b));
  }
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

// The same grouping of the first `rows` rows by hashing them directly.
std::vector<std::vector<uint32_t>> HashGrouping(const Relation& r,
                                                AttrSet attrs, uint64_t rows) {
  const std::vector<uint32_t> pos = attrs.ToIndices();
  std::map<std::vector<uint32_t>, std::vector<uint32_t>> groups;
  std::vector<uint32_t> key(pos.size());
  for (uint64_t i = 0; i < rows; ++i) {
    for (size_t k = 0; k < pos.size(); ++k) key[k] = r.Row(i)[pos[k]];
    groups[key].push_back(static_cast<uint32_t>(i));
  }
  std::vector<std::vector<uint32_t>> blocks;
  for (auto& g : groups) {
    if (g.second.size() >= 2) blocks.push_back(std::move(g.second));
  }
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

TEST(EntropyEngine, PartitionAtMatchesColdChainOnHitAndMiss) {
  Rng rng(930);
  for (int trial = 0; trial < 4; ++trial) {
    Relation r = RandomMultisetRelation(&rng, 5, 2 + trial, 200);
    EntropyEngine engine(&r);
    ColumnStore cold(&r);
    const EpochPin pin = engine.Pin();
    int hits = 0;
    int misses = 0;
    // Supersets first: their chains cache subsets that later read as hits.
    for (uint64_t mask = 31; mask >= 1; --mask) {
      const AttrSet s = AttrSet::FromMask(mask);
      // Plain queries cache intermediates and count-only finals (later
      // misses that refine from a cached base).
      if (rng.Bernoulli(0.3)) engine.Entropy(s);
      const bool cached = engine.CachedPartitionInfo(s, nullptr, nullptr);
      (cached ? hits : misses) += 1;
      const std::shared_ptr<const Partition> p = engine.PartitionAt(s, pin);
      std::vector<uint32_t> chain;
      std::shared_ptr<const Partition> entry;
      ASSERT_TRUE(engine.CachedPartitionInfo(s, &chain, &entry));
      EXPECT_EQ(entry.get(), p.get()) << s.ToString();
      // A second read is a hit on the very same partition.
      EXPECT_EQ(engine.PartitionAt(s, pin).get(), p.get());
      ASSERT_EQ(chain.size(), s.Count());
      Partition replay = Partition::OfColumn(cold.column(chain[0]));
      for (size_t j = 1; j < chain.size(); ++j) {
        replay = replay.RefinedBy(cold.column(chain[j]));
      }
      std::vector<uint32_t> got_rows, got_offsets, want_rows, want_offsets;
      p->FlattenStripped(&got_rows, &got_offsets);
      replay.FlattenStripped(&want_rows, &want_offsets);
      EXPECT_EQ(got_rows, want_rows) << s.ToString();
      EXPECT_EQ(got_offsets, want_offsets) << s.ToString();
      EXPECT_EQ(p->NumDistinct(pin.rows), CountDistinct(r, s));
    }
    EXPECT_GT(hits, 0);
    EXPECT_GT(misses, 0);
  }
}

// Attribute 0 is a key over the first `unique` rows (row i holds i); each
// attribute a >= 1 holds i % cards[a - 1], so it has exactly that
// cardinality. The last `dups` rows repeat rows 0..dups-1 in full, which
// keeps the stripped mass of any partition containing attribute 0 at
// 2 * dups no matter which other columns refine it.
Relation RankTestRelation(uint32_t unique, uint32_t dups,
                          const std::vector<uint32_t>& cards) {
  std::vector<uint64_t> dims = {unique};
  dims.insert(dims.end(), cards.begin(), cards.end());
  Schema schema = Schema::MakeSynthetic(dims).value();
  RelationBuilder b(schema);
  for (uint32_t k = 0; k < unique + dups; ++k) {
    const uint32_t i = k < unique ? k : k - unique;
    std::vector<uint32_t> row = {i};
    for (uint32_t c : cards) row.push_back(i % c);
    b.AddRow(row);
  }
  return std::move(b).Build(/*dedupe=*/false);
}

TEST(EntropyEngine, MissAppliesColumnsByCardinalityThenNarrowestWhenSaturated) {
  // The miss ranks each remaining column by min(cardinality, stripped
  // mass), breaking ties by narrower cardinality; the recorded chain shows
  // the order the columns were applied in.
  auto chain_of = [](EntropyEngine& engine, AttrSet s) {
    const EpochPin pin = engine.Pin();
    engine.PartitionAt(s, pin);
    std::vector<uint32_t> chain;
    EXPECT_TRUE(engine.CachedPartitionInfo(s, &chain, nullptr));
    return chain;
  };
  {
    // Mass above every cardinality: 420 rows, and every i % 210 class
    // keeps two rows at every step, so the mass stays 420. Widest first.
    Relation r = RankTestRelation(420, 0, {3, 7, 2, 5});
    EntropyEngine engine(&r);
    EXPECT_EQ(chain_of(engine, AttrSet{1, 2, 3, 4}),
              (std::vector<uint32_t>{2, 4, 1, 3}));
  }
  {
    // Mass below every cardinality: the cached key partition has mass 4,
    // so every column ties at 4 and the narrowest goes first.
    Relation r = RankTestRelation(60, 2, {30, 10, 20});
    EntropyEngine engine(&r);
    engine.Entropy(AttrSet{0});
    EXPECT_EQ(chain_of(engine, AttrSet{0, 1, 2, 3}),
              (std::vector<uint32_t>{0, 2, 3, 1}));
  }
  {
    // Mass 6 between the cardinalities: the columns wider than the mass
    // tie at 6 and go first, narrowest of them first; the rest follow by
    // descending cardinality.
    Relation r = RankTestRelation(60, 3, {4, 30, 2, 10});
    EntropyEngine engine(&r);
    engine.Entropy(AttrSet{0});
    EXPECT_EQ(chain_of(engine, AttrSet{0, 1, 2, 3, 4}),
              (std::vector<uint32_t>{0, 4, 2, 1, 3}));
  }
}

TEST(EntropyEngine, PartitionAtSurvivesEvictionOnEveryMiss) {
  // A 1-byte arbiter budget evicts each partition as soon as it is
  // charged; PartitionAt must still hand back what the compute built.
  Rng rng(931);
  Relation r = RandomMultisetRelation(&rng, 5, 3, 150);
  SessionOptions options;
  options.engine.cache_budget_bytes = 1;
  AnalysisSession session(options);
  EntropyEngine& engine = session.EngineFor(r);
  const EpochPin pin = engine.Pin();
  for (uint64_t mask = 1; mask < 32; ++mask) {
    const AttrSet s = AttrSet::FromMask(mask);
    const std::shared_ptr<const Partition> p = engine.PartitionAt(s, pin);
    EXPECT_EQ(CanonicalBlocks(*p), HashGrouping(r, s, pin.rows))
        << s.ToString();
  }
  EXPECT_GT(engine.Stats().evictions, 0u);
}

TEST(EntropyEngine, AllAttributesOfASetSkipThePartitionCache) {
  // A duplicate-free relation answers H(all attributes) = ln N directly:
  // the value equals EntropyOf bit for bit, PartitionAt hands out an empty
  // (all-singleton) partition, and no all-attribute partition is cached.
  // A multiset takes the ordinary chain and caches it.
  Rng rng(933);
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t num_attrs = 2 + static_cast<uint32_t>(rng.UniformU64(4));
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(4));
    const uint32_t rows = 20 + static_cast<uint32_t>(rng.UniformU64(100));
    const bool is_set = trial % 2 == 0;
    Relation r = is_set ? testing_util::RandomTestRelation(&rng, num_attrs,
                                                           domain, rows)
                        : RandomMultisetRelation(&rng, num_attrs, domain, rows);
    ASSERT_EQ(r.DistinctPrefixRows(), is_set ? r.NumRows() : 0u);
    const AttrSet all = r.schema().AllAttrs();
    EntropyEngine engine(&r);
    const uint32_t limit = uint32_t{1} << num_attrs;
    std::vector<uint32_t> masks(limit);
    for (uint32_t m = 0; m < limit; ++m) masks[m] = m;
    rng.Shuffle(&masks);
    for (uint32_t m : masks) {
      const AttrSet s = AttrSet::FromMask(m);
      EXPECT_EQ(engine.Entropy(s), EntropyOf(r, s)) << s.ToString();
    }
    engine.PrewarmSubsets({all});
    const std::shared_ptr<const Partition> p =
        engine.PartitionAt(all, engine.Pin());
    EXPECT_EQ(CanonicalBlocks(*p), HashGrouping(r, all, r.NumRows()));
    EXPECT_EQ(p->NumDistinct(r.NumRows()), CountDistinct(r, all));
    EXPECT_EQ(engine.Entropy(all), EntropyOf(r, all));
    if (is_set) {
      EXPECT_EQ(p->NumBlocks(), 0u);
      EXPECT_EQ(engine.Entropy(all),
                std::log(static_cast<double>(r.NumRows())));
    }
    EXPECT_EQ(engine.CachedPartitionInfo(all, nullptr, nullptr), !is_set)
        << "trial=" << trial;
  }
}

TEST(EntropyEngine, PinnedPartitionAtStaysAtItsEpochWhileNextPublishes) {
  // A reader pinned at epoch k keeps getting k-row partitions while the
  // appender lands epoch k+1 and catch-up publishes it concurrently.
  Rng rng(932);
  for (int trial = 0; trial < 3; ++trial) {
    Relation r = RandomMultisetRelation(&rng, 4, 3, 120);
    const Relation prefix = r;  // frozen epoch-k copy
    EntropyEngine engine(&r);
    engine.Entropy(AttrSet{0, 1});  // something for catch-up to claim
    const EpochPin pin = engine.Pin();
    std::vector<std::vector<uint32_t>> batch(80, std::vector<uint32_t>(4));
    for (auto& row : batch) {
      for (uint32_t& v : row) v = static_cast<uint32_t>(rng.UniformU64(5));
    }

    std::vector<std::pair<uint32_t, std::shared_ptr<const Partition>>> seen;
    std::atomic<bool> published{false};
    std::thread reader([&engine, &seen, &published, pin, trial] {
      Rng trng(940 + static_cast<uint64_t>(trial));
      // Keep reading through the publish and a while after it.
      for (int after = 0; after < 32;) {
        if (published.load(std::memory_order_acquire)) ++after;
        const uint32_t mask = 1 + static_cast<uint32_t>(trng.UniformU64(15));
        seen.emplace_back(mask,
                          engine.PartitionAt(AttrSet::FromMask(mask), pin));
      }
    });
    const Status appended = r.AppendBatch(batch);
    engine.CatchUp();
    published.store(true, std::memory_order_release);
    reader.join();
    ASSERT_TRUE(appended.ok());

    ASSERT_GT(engine.Pin().rows, pin.rows);
    for (const auto& [mask, p] : seen) {
      const AttrSet s = AttrSet::FromMask(mask);
      ASSERT_EQ(CanonicalBlocks(*p), HashGrouping(prefix, s, pin.rows))
          << s.ToString();
      ASSERT_EQ(p->NumDistinct(pin.rows), CountDistinct(prefix, s));
    }
    // The published epoch serves the grown relation.
    const EpochPin now = engine.Pin();
    for (uint64_t mask = 1; mask < 16; ++mask) {
      const AttrSet s = AttrSet::FromMask(mask);
      EXPECT_EQ(CanonicalBlocks(*engine.PartitionAt(s, now)),
                HashGrouping(r, s, now.rows));
    }
  }
}

// --- Shared WorkerPool (engine/worker_pool.h) ---------------------------

TEST(WorkerPool, EffectiveCpuCountWithinHardwareThreads) {
  const uint32_t cpus = EffectiveCpuCount();
  EXPECT_GE(cpus, 1u);
  const uint32_t hw = std::thread::hardware_concurrency();
  if (hw != 0) {
    EXPECT_LE(cpus, hw);
  }
  EXPECT_EQ(EffectiveCpuCount(), cpus);  // resolved once
}

TEST(WorkerPool, SharedAcrossEnginesMatchesPrivatePools) {
  // Sized so a cold batch over every subset pays for the pool (the work
  // gate keeps toy batches inline at any thread count).
  Rng rng(925);
  Relation r1 = testing_util::RandomTestRelation(&rng, 5, 10, 40000);
  Relation r2 = RandomMultisetRelation(&rng, 5, 4, 30000);

  // One explicit pool serving every engine of one session.
  auto pool = std::make_shared<WorkerPool>();
  EngineOptions shared_options;
  shared_options.num_threads = 4;
  shared_options.worker_pool = pool;
  AnalysisSession shared_session(shared_options);

  // Private pools: one session (and thus one resolved pool) per relation.
  EngineOptions private_options;
  private_options.num_threads = 4;
  private_options.worker_pool = std::make_shared<WorkerPool>();
  AnalysisSession private_session1(private_options);
  private_options.worker_pool = std::make_shared<WorkerPool>();
  AnalysisSession private_session2(private_options);

  std::vector<AttrSet> sets;
  for (uint32_t m = 0; m < 32; ++m) sets.push_back(AttrSet::FromMask(m));
  for (const Relation* r : {&r1, &r2}) {
    AnalysisSession& priv = r == &r1 ? private_session1 : private_session2;
    std::vector<double> via_shared =
        shared_session.EngineFor(*r).BatchEntropy(sets);
    std::vector<double> via_private = priv.EngineFor(*r).BatchEntropy(sets);
    for (size_t i = 0; i < sets.size(); ++i) {
      EXPECT_EQ(via_shared[i], EntropyOf(*r, sets[i]));
      EXPECT_EQ(via_shared[i], via_private[i]);
    }
  }
  // The shared pool actually spawned workers (4 workers = caller + 3) and
  // served both engines; neither engine grew a roster of its own.
  EXPECT_GT(pool->NumThreads(), 0u);
  EXPECT_LE(pool->NumThreads(), 3u);

  // End to end: a miner run through a shared-pool session renders byte-
  // identically to one through a private-pool session.
  MinerReport a = MineJoinTree(&shared_session, r1).value();
  EngineOptions fresh_options;
  fresh_options.num_threads = 4;
  fresh_options.worker_pool = std::make_shared<WorkerPool>();
  AnalysisSession fresh_private(fresh_options);
  MinerReport b = MineJoinTree(&fresh_private, r1).value();
  EXPECT_EQ(a.ToString(r1.schema()), b.ToString(r1.schema()));
}

TEST(WorkerPool, ProcessSharedDefaultIsReused) {
  // Engines built without an explicit pool all resolve to the process-wide
  // default; sessions expose the resolved pool.
  AnalysisSession s1;
  AnalysisSession s2;
  EXPECT_EQ(&s1.worker_pool(), &s2.worker_pool());
  EXPECT_EQ(&s1.worker_pool(), WorkerPool::Shared().get());
}

TEST(EntropyCalculator, SessionBackedSharesCache) {
  Rng rng(908);
  Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 80);
  AnalysisSession session;
  EntropyCalculator first(&session, &r);
  EntropyCalculator second(&session, &r);
  first.Entropy(AttrSet{0, 1, 2});
  uint64_t hits_before = session.TotalStats().hits;
  second.Entropy(AttrSet{0, 1, 2});  // same engine: a hit, not a recompute
  EXPECT_EQ(session.TotalStats().hits, hits_before + 1);
  EXPECT_EQ(first.CacheSize(), second.CacheSize());
}

}  // namespace
}  // namespace ajd
