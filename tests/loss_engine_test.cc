// The engine join count behind ComputeLoss / ComputeLossAt (core/loss.h),
// diffed against the hash-based oracle it replaced
// (tests/acyclic_join_oracle.h): `join_size_exact` must match exactly,
// and `join_size` bit for bit whenever the join size is below 2^53.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "acyclic_join_oracle.h"
#include "core/loss.h"
#include "discovery/miner.h"
#include "engine/analysis_session.h"
#include "engine/worker_pool.h"
#include "random/rng.h"
#include "relation/relation.h"
#include "test_util.h"

namespace ajd {
namespace {

using Rows = std::vector<std::vector<uint32_t>>;

Rows RandomRows(Rng* rng, uint32_t num_attrs, uint32_t domain,
                uint32_t count) {
  Rows rows(count, std::vector<uint32_t>(num_attrs));
  for (auto& row : rows) {
    for (uint32_t& v : row) v = static_cast<uint32_t>(rng->UniformU64(domain));
  }
  return rows;
}

Relation FromRows(uint32_t num_attrs, uint64_t domain, const Rows& rows,
                  bool dedupe) {
  std::vector<uint64_t> dims(num_attrs, domain);
  RelationBuilder b(Schema::MakeSynthetic(dims).value());
  for (const auto& row : rows) b.AddRow(row);
  return std::move(b).Build(dedupe);
}

void ExpectMatchesOracle(const LossReport& got, const Relation& r,
                         const JoinTree& t) {
  SCOPED_TRACE(t.ToString());
  const join_oracle::AcyclicJoinCount want =
      join_oracle::CountAcyclicJoin(r, t);
  EXPECT_EQ(got.num_tuples, r.NumRows());
  EXPECT_EQ(got.join_size_exact, want.exact);
  if (want.exact.has_value() && *want.exact < (uint64_t{1} << 53)) {
    EXPECT_EQ(got.join_size, want.approx);
    EXPECT_EQ(got.join_size, static_cast<double>(*want.exact));
  } else {
    EXPECT_NEAR(got.join_size, want.approx, want.approx * 1e-12);
  }
}

// A tree of pairwise-disjoint bags (every separator empty): a random
// partition of the first `num_attrs` attributes, each bag hung off a
// random earlier one.
JoinTree DisjointBagTree(Rng* rng, uint32_t num_attrs) {
  const uint32_t m = 1 + static_cast<uint32_t>(rng->UniformU64(num_attrs));
  std::vector<AttrSet> bags(m);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    bags[a < m ? a : rng->UniformU64(m)].Add(a);
  }
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t v = 1; v < m; ++v) {
    edges.emplace_back(static_cast<uint32_t>(rng->UniformU64(v)), v);
  }
  return JoinTree::Make(std::move(bags), std::move(edges)).value();
}

SessionOptions ThreadedOptions(uint32_t threads) {
  SessionOptions opts;
  opts.engine.num_threads = threads;
  opts.engine.worker_pool = std::make_shared<WorkerPool>();
  return opts;
}

TEST(LossEngine, MatchesOracleOnRandomSetsAndMultisets) {
  Rng rng(2301);
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t num_attrs = 3 + static_cast<uint32_t>(rng.UniformU64(4));
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(3));
    const uint32_t rows = 5 + static_cast<uint32_t>(rng.UniformU64(200));
    // Odd trials keep repeated rows: the projections are sets either way.
    const bool dedupe = trial % 2 == 0;
    const Relation r = FromRows(
        num_attrs, domain, RandomRows(&rng, num_attrs, domain, rows), dedupe);
    // Trees over all attributes and over a strict prefix of them.
    const uint32_t covered =
        2 + static_cast<uint32_t>(rng.UniformU64(num_attrs - 1));
    const JoinTree t = testing_util::RandomJoinTree(&rng, covered);
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      AnalysisSession session(ThreadedOptions(threads));
      ExpectMatchesOracle(ComputeLoss(&session, r, t).value(), r, t);
    }
    ExpectMatchesOracle(ComputeLoss(r, t).value(), r, t);
  }
}

TEST(LossEngine, EmptySeparatorsAndSingleBags) {
  Rng rng(2302);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t num_attrs = 2 + static_cast<uint32_t>(rng.UniformU64(5));
    const Relation r = FromRows(num_attrs, 3,
                                RandomRows(&rng, num_attrs, 3, 60),
                                /*dedupe=*/trial % 2 == 0);
    AnalysisSession session;
    const JoinTree disjoint = DisjointBagTree(&rng, num_attrs);
    ExpectMatchesOracle(ComputeLoss(&session, r, disjoint).value(), r,
                        disjoint);
    for (AttrSet bag : {r.schema().AllAttrs(), AttrSet{0, 1}, AttrSet{1}}) {
      const JoinTree single = JoinTree::Make({bag}, {}).value();
      ExpectMatchesOracle(ComputeLoss(&session, r, single).value(), r,
                          single);
    }
    // An empty bag joins as the one empty tuple.
    const JoinTree with_empty =
        JoinTree::Make({AttrSet(), AttrSet{0, 1}}, {{0, 1}}).value();
    ExpectMatchesOracle(ComputeLoss(&session, r, with_empty).value(), r,
                        with_empty);
    // A mined tree whose every separator is empty.
    MinerOptions mopts;
    mopts.max_separator_size = 0;
    const JoinTree mined = MineJoinTree(&session, r, mopts).value().tree;
    ExpectMatchesOracle(ComputeLoss(&session, r, mined).value(), r, mined);
  }
}

TEST(LossEngine, OverflowingJoinSizes) {
  // Attribute 0 takes value 0 on `wide` rows and 1 on `narrow` rows; every
  // other attribute equals the row's index within its group. A star of
  // bags {0, i} then joins to wide^k + narrow^k tuples over k leaves, and
  // the path of singleton bags {i} (empty separators) to wide^k.
  const uint32_t kWide = 16;
  const uint32_t kNarrow = 3;
  for (uint32_t leaves : {4u, 13u, 15u, 16u, 17u, 40u}) {
    SCOPED_TRACE(leaves);
    Rows rows;
    for (uint32_t v = 0; v < kWide + kNarrow; ++v) {
      std::vector<uint32_t> row(leaves + 1, v < kWide ? v : v - kWide);
      row[0] = v < kWide ? 0 : 1;
      rows.push_back(std::move(row));
    }
    const Relation r = FromRows(leaves + 1, kWide, rows, /*dedupe=*/true);
    std::vector<AttrSet> star_bags;
    std::vector<std::pair<uint32_t, uint32_t>> star_edges;
    std::vector<AttrSet> path_bags;
    for (uint32_t i = 1; i <= leaves; ++i) {
      star_bags.push_back(AttrSet{0, i});
      if (i > 1) star_edges.emplace_back(0, i - 1);
      path_bags.push_back(AttrSet::Singleton(i));
    }
    const JoinTree star = JoinTree::Make(star_bags, star_edges).value();
    const JoinTree path = JoinTree::Path(path_bags).value();
    AnalysisSession session;
    const LossReport star_loss = ComputeLoss(&session, r, star).value();
    const LossReport path_loss = ComputeLoss(&session, r, path).value();
    ExpectMatchesOracle(star_loss, r, star);
    ExpectMatchesOracle(path_loss, r, path);
    // 16^k fits in uint64 through k = 15 and overflows from k = 16 on.
    EXPECT_EQ(path_loss.join_size_exact.has_value(), leaves < 16);
    EXPECT_EQ(star_loss.join_size_exact.has_value(), leaves < 16);
    EXPECT_EQ(path_loss.join_size, std::pow(16.0, leaves));
  }
}

TEST(LossEngine, PinnedPrefixesWhileTheNextEpochLands) {
  // Readers count at the pin they took while an appender lands batches;
  // every count is the oracle's over exactly that prefix. The TSan leg
  // runs this.
  Rng rng(2303);
  const uint32_t num_attrs = 4;
  const uint32_t domain = 4;
  Rows all = RandomRows(&rng, num_attrs, domain, 150);
  std::vector<Rows> batches;
  for (int k = 0; k < 8; ++k) {
    batches.push_back(RandomRows(&rng, num_attrs, domain, 40));
  }
  Relation r = FromRows(num_attrs, domain, all, /*dedupe=*/false);
  const JoinTree tree =
      JoinTree::Path({AttrSet{0, 1}, AttrSet{1, 2}, AttrSet{2, 3}}).value();
  AnalysisSession session;
  EntropyEngine& engine = session.EngineFor(r);

  constexpr int kReaders = 2;
  std::vector<std::vector<LossReport>> observed(kReaders);
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng trng(2400 + static_cast<uint64_t>(t));
      bool first = true;
      do {
        if (trng.Bernoulli(0.5)) engine.CatchUp();
        const EpochPin pin = engine.Pin();
        observed[static_cast<size_t>(t)].push_back(
            ComputeLossAt(&engine, pin, tree).value());
        if (first) {
          started.fetch_add(1, std::memory_order_release);
          first = false;
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  while (started.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (const Rows& batch : batches) {
    ASSERT_TRUE(r.AppendBatch(batch).ok());
    all.insert(all.end(), batch.begin(), batch.end());
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  std::map<uint64_t, Relation> prefixes;
  size_t checked = 0;
  for (const auto& per_thread : observed) {
    for (const LossReport& got : per_thread) {
      auto it = prefixes.find(got.num_tuples);
      if (it == prefixes.end()) {
        const Rows prefix(all.begin(),
                          all.begin() + static_cast<ptrdiff_t>(got.num_tuples));
        it = prefixes
                 .emplace(got.num_tuples,
                          FromRows(num_attrs, domain, prefix, false))
                 .first;
      }
      ExpectMatchesOracle(got, it->second, tree);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(LossEngine, ThreadCountsAgreeOnALargeRelation) {
  // Large enough that the bag and separator prewarm fans out on the pool.
  Rng rng(2304);
  const uint32_t num_attrs = 10;
  const Relation r = FromRows(num_attrs, 12,
                              RandomRows(&rng, num_attrs, 12, 60000),
                              /*dedupe=*/true);
  std::vector<AttrSet> bags;
  for (uint32_t a = 0; a + 1 < num_attrs; ++a) bags.push_back(AttrSet{a, a + 1});
  const JoinTree tree = JoinTree::Path(bags).value();
  std::vector<LossReport> got;
  for (uint32_t threads : {1u, 4u}) {
    SessionOptions opts = ThreadedOptions(threads);
    AnalysisSession session(opts);
    got.push_back(ComputeLoss(&session, r, tree).value());
    if (threads > 1) {
      EXPECT_GT(opts.engine.worker_pool->NumThreads(), 0u);
    }
  }
  ExpectMatchesOracle(got[0], r, tree);
  EXPECT_EQ(got[1].join_size_exact, got[0].join_size_exact);
  EXPECT_EQ(got[1].join_size, got[0].join_size);
  EXPECT_EQ(got[1].rho, got[0].rho);
}

TEST(LossEngine, RejectsEmptyPrefixAndForeignAttributes) {
  const Relation r = FromRows(2, 2, {}, /*dedupe=*/true);
  const JoinTree tree = JoinTree::Make({AttrSet{0, 1}}, {}).value();
  AnalysisSession session;
  EntropyEngine& engine = session.EngineFor(r);
  EXPECT_EQ(ComputeLossAt(&engine, engine.Pin(), tree).status().code(),
            StatusCode::kFailedPrecondition);
  const Relation one = FromRows(2, 2, {{0, 1}}, /*dedupe=*/true);
  const JoinTree foreign = JoinTree::Make({AttrSet{0, 2}}, {}).value();
  EntropyEngine& one_engine = session.EngineFor(one);
  EXPECT_EQ(
      ComputeLossAt(&one_engine, one_engine.Pin(), foreign).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ajd
