// Randomized stress/property suite for the sharded AnalysisSession: N
// relations of random schemas and skews churned through one session —
// created, queried, released, and recreated at REUSED addresses (the
// uid-identity path) — asserting after every operation that
//   (a) every entropy equals the legacy EntropyOf reference, and
//   (b) the shared arbiter's accounted bytes never exceed the budget.
// Plus the cross-engine concurrency coverage: multi-threaded BatchEntropy
// from two engines on one arbiter must be byte-identical to the serial
// run when each engine computes serially, and exact under full fan-out
// with eviction pressure. The TSan CI leg runs this file.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/analysis_session.h"
#include "engine/cache_arbiter.h"
#include "engine/entropy_engine.h"
#include "engine/worker_pool.h"
#include "info/entropy.h"
#include "random/rng.h"
#include "relation/attr_set.h"
#include "relation/relation.h"
#include "test_util.h"

namespace ajd {
namespace {

// A random relation with random shape; skewed draws concentrate mass on
// low codes so partitions (and the engine's column ordering) see genuinely
// uneven data, and rows are kept as a multiset.
Relation RandomStressRelation(Rng* rng) {
  const uint32_t num_attrs = 2 + static_cast<uint32_t>(rng->UniformU64(4));
  const uint32_t domain = 2 + static_cast<uint32_t>(rng->UniformU64(5));
  const uint32_t rows = 20 + static_cast<uint32_t>(rng->UniformU64(180));
  const bool skewed = rng->Bernoulli(0.5);
  std::vector<uint64_t> dims(num_attrs, domain);
  Schema schema = Schema::MakeSynthetic(dims).value();
  RelationBuilder b(schema);
  std::vector<uint32_t> row(num_attrs);
  for (uint32_t i = 0; i < rows; ++i) {
    for (uint32_t a = 0; a < num_attrs; ++a) {
      if (skewed) {
        const double u = rng->NextDouble();
        uint32_t c = static_cast<uint32_t>(u * u * domain);
        row[a] = c >= domain ? domain - 1 : c;
      } else {
        row[a] = static_cast<uint32_t>(rng->UniformU64(domain));
      }
    }
    b.AddRow(row);
  }
  return std::move(b).Build(/*dedupe=*/false);
}

AttrSet RandomNonEmptySubset(Rng* rng, uint32_t num_attrs) {
  const uint64_t limit = uint64_t{1} << num_attrs;
  uint64_t mask = 1 + rng->UniformU64(limit - 1);
  return AttrSet::FromMask(mask);
}

// One churn pass: `slots` relations live in std::optional storage, so a
// recreate lands at the SAME address as the released relation — exactly
// the address-reuse scenario the uid identity check exists for (a fresh
// engine after Release, never a stale one).
void ChurnSession(AnalysisSession* session, uint64_t seed, size_t budget) {
  Rng rng(seed);
  constexpr size_t kSlots = 6;
  constexpr int kOps = 150;
  std::vector<std::optional<Relation>> slots(kSlots);

  auto check_budget = [&] {
    EXPECT_LE(session->CacheBytes(), budget);
    EXPECT_LE(session->cache_arbiter()->AccountedBytes(),
              session->cache_arbiter()->budget_bytes());
  };
  auto query_and_check = [&](const Relation& r) {
    AttrSet attrs = RandomNonEmptySubset(&rng, r.NumAttrs());
    EXPECT_EQ(session->EngineFor(r).Entropy(attrs), EntropyOf(r, attrs))
        << "attrs=" << attrs.ToString();
    check_budget();
  };

  for (int op = 0; op < kOps; ++op) {
    const size_t i = static_cast<size_t>(rng.UniformU64(kSlots));
    std::optional<Relation>& slot = slots[i];
    if (!slot.has_value()) {
      slot.emplace(RandomStressRelation(&rng));
      query_and_check(*slot);
      continue;
    }
    switch (rng.UniformU64(4)) {
      case 0:  // point query
        query_and_check(*slot);
        break;
      case 1: {  // batch query, checked term by term
        std::vector<AttrSet> sets;
        for (int k = 0; k < 8; ++k) {
          sets.push_back(RandomNonEmptySubset(&rng, slot->NumAttrs()));
        }
        std::vector<double> got =
            session->EngineFor(*slot).BatchEntropy(sets);
        for (size_t k = 0; k < sets.size(); ++k) {
          EXPECT_EQ(got[k], EntropyOf(*slot, sets[k]));
        }
        check_budget();
        break;
      }
      case 2:  // release and destroy; the slot goes dormant
        EXPECT_TRUE(session->Release(*slot));
        slot.reset();
        check_budget();
        break;
      default:  // release + recreate AT THE SAME ADDRESS, then query
        EXPECT_TRUE(session->Release(*slot));
        slot.emplace(RandomStressRelation(&rng));
        query_and_check(*slot);
        break;
    }
  }
  // Drain every survivor: releases discharge exactly what is accounted, so
  // the session ends at zero accounted bytes.
  for (auto& slot : slots) {
    if (slot.has_value()) {
      EXPECT_TRUE(session->Release(*slot));
      slot.reset();
    }
  }
  EXPECT_EQ(session->NumRelations(), 0u);
  EXPECT_EQ(session->CacheBytes(), 0u);
}

TEST(SessionStress, RandomChurnHoldsValueAndBudgetInvariants) {
  // Budgets spanning "evict almost everything" to "never evict", plus
  // budget 0, which caches no partition at all.
  const size_t kBudgets[] = {2048, 64 << 10, size_t{1} << 30, 0};
  uint64_t seed = 940;
  for (size_t budget : kBudgets) {
    SessionOptions opts;
    opts.engine.cache_budget_bytes = budget;
    AnalysisSession session(opts);
    ASSERT_NE(session.cache_arbiter(), nullptr);
    EXPECT_EQ(session.cache_arbiter()->budget_bytes(), budget);
    ChurnSession(&session, ++seed, budget);
  }
}

TEST(SessionStress, ParallelEnginesChurnHoldsInvariants) {
  // Same churn with threaded engines: batches take the level-ordered,
  // probed path of a threaded engine. The churn's relations (<= 200 rows)
  // are too small for any batch to pass the work gate, so the pool itself
  // stays idle here; FanOutUnderEvictionPressureStaysCorrect drives it.
  SessionOptions opts;
  opts.engine.num_threads = 4;
  opts.engine.cache_budget_bytes = 32 << 10;
  AnalysisSession session(opts);
  ChurnSession(&session, 950, opts.engine.cache_budget_bytes);
}

TEST(SessionStress, ReleaseOfUnknownRelationIsFalseAndDoubleReleaseIsNoOp) {
  Rng rng(951);
  Relation served = testing_util::RandomTestRelation(&rng, 4, 3, 80);
  Relation never_served = testing_util::RandomTestRelation(&rng, 4, 3, 80);
  AnalysisSession session;
  session.EngineFor(served).Entropy(AttrSet{0, 1});
  const size_t accounted = session.CacheBytes();

  // Unknown relation: false, and nothing about the session changes.
  EXPECT_FALSE(session.Release(never_served));
  EXPECT_EQ(session.NumRelations(), 1u);
  EXPECT_EQ(session.CacheBytes(), accounted);

  // First release drops the engine and discharges it; the second is a
  // no-op returning false, not UB — the session stays fully usable.
  EXPECT_TRUE(session.Release(served));
  EXPECT_FALSE(session.Release(served));
  EXPECT_EQ(session.NumRelations(), 0u);
  EXPECT_EQ(session.CacheBytes(), 0u);
  EXPECT_EQ(session.EngineFor(served).Entropy(AttrSet{0, 1}),
            EntropyOf(served, AttrSet{0, 1}));
}

TEST(SessionStress, UnreleasedAddressReuseRebuildsTransparently) {
  // The old fingerprint guard ABORTED here; the uid check now rebuilds the
  // engine transparently, because "relation changed" is a legitimate state
  // (epochs) and only identity — a DIFFERENT relation at the same address
  // — requires action. The new engine must serve the new relation's
  // values, not the dead one's.
  Rng rng(952);
  std::optional<Relation> slot;
  slot.emplace(testing_util::RandomTestRelation(&rng, 3, 3, 40));
  AnalysisSession session;
  const double before = session.EngineFor(*slot).Entropy(AttrSet{0, 1});
  const uint64_t old_uid = slot->uid();
  slot.reset();
  slot.emplace(testing_util::RandomTestRelation(&rng, 3, 3, 60));
  ASSERT_NE(slot->uid(), old_uid);
  EntropyEngine& rebuilt = session.EngineFor(*slot);
  EXPECT_EQ(rebuilt.relation_uid(), slot->uid());
  EXPECT_EQ(rebuilt.Entropy(AttrSet{0, 1}), EntropyOf(*slot, AttrSet{0, 1}));
  EXPECT_EQ(session.NumRelations(), 1u);
  (void)before;
}

TEST(SessionStress, AppendUnderSessionCatchesUpInsteadOfAborting) {
  // Growth of the SAME relation (same uid, newer epoch) must neither abort
  // nor rebuild: the engine catches up and keeps serving exact values.
  Rng rng(953);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 4, 50);
  AnalysisSession session;
  EntropyEngine& engine = session.EngineFor(r);
  engine.Entropy(AttrSet{0, 1});
  std::vector<std::vector<uint32_t>> batch;
  for (int i = 0; i < 30; ++i) {
    batch.push_back({static_cast<uint32_t>(rng.UniformU64(4)),
                     static_cast<uint32_t>(rng.UniformU64(4)),
                     static_cast<uint32_t>(rng.UniformU64(4))});
  }
  ASSERT_TRUE(r.AppendBatch(batch).ok());
  EntropyEngine& same = session.EngineFor(r);
  EXPECT_EQ(&same, &engine);  // no rebuild: identity matched
  for (uint64_t mask = 1; mask < 8; ++mask) {
    const AttrSet s = AttrSet::FromMask(mask);
    EXPECT_EQ(same.Entropy(s), EntropyOf(r, s)) << mask;
  }
  EXPECT_EQ(same.Stats().epoch_catchups, 1u);
}

TEST(WorkerPool, BusyPoolRunsSubmitterInlineInsteadOfWaiting) {
  // One submitter parks inside its batch while holding the pool; a second
  // submitter must complete WITHOUT waiting for it (inline on its own
  // thread). Under the old head-of-line blocking this test deadlocks: the
  // second Run would sit on the submit lock while the first batch waits
  // for it to finish.
  WorkerPool pool;
  std::atomic<bool> first_started{false};
  std::atomic<bool> second_done{false};
  std::thread first([&] {
    std::function<void(size_t)> block = [&](size_t) {
      first_started.store(true);
      while (!second_done.load()) std::this_thread::yield();
    };
    pool.Run(1, 2, block);
  });
  while (!first_started.load()) std::this_thread::yield();

  std::atomic<int> processed{0};
  std::function<void(size_t)> count = [&](size_t) { ++processed; };
  pool.Run(3, 2, count);  // pool busy -> inline, cannot block
  EXPECT_EQ(processed.load(), 3);
  second_done.store(true);
  first.join();
}

TEST(WorkerPool, ThrowingTaskIsContainedOnEveryPath) {
  // A task that throws must neither kill a pool thread (std::terminate)
  // nor strand the batch latch: the remaining indexes run, the batch
  // drains, and the first exception resurfaces on the submitter. All
  // three execution paths — pool-run, workers<=1 inline, and busy-pool
  // inline — must behave identically, and the pool must stay usable for
  // later batches.
  WorkerPool pool;
  auto run_and_expect_contained = [&](uint32_t workers) {
    std::atomic<int> processed{0};
    std::function<void(size_t)> task = [&](size_t i) {
      if (i == 2) throw std::runtime_error("task boom");
      ++processed;
    };
    try {
      pool.Run(6, workers, task);
      FAIL() << "expected the task's exception to resurface";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task boom");
    }
    EXPECT_EQ(processed.load(), 5);  // every non-throwing index still ran
  };
  run_and_expect_contained(/*workers=*/4);  // pool path
  run_and_expect_contained(/*workers=*/1);  // inline path

  // Busy-pool inline path: occupy the pool from another thread, then
  // submit a throwing batch that must run inline with the same semantics.
  std::atomic<bool> first_started{false};
  std::atomic<bool> release{false};
  std::thread occupier([&] {
    std::function<void(size_t)> block = [&](size_t) {
      first_started.store(true);
      while (!release.load()) std::this_thread::yield();
    };
    pool.Run(1, 2, block);
  });
  while (!first_started.load()) std::this_thread::yield();
  run_and_expect_contained(/*workers=*/4);  // busy -> inline fallback
  release.store(true);
  occupier.join();

  // The pool survived: a clean batch still completes on pool threads.
  std::atomic<int> clean{0};
  std::function<void(size_t)> count = [&](size_t) { ++clean; };
  pool.Run(8, 4, count);
  EXPECT_EQ(clean.load(), 8);
}

TEST(WorkerPool, NestedSubmissionRunsInlineAndCompletes) {
  // A pool task that itself submits a sub-batch (an engine queried from
  // inside another batch's task on a shared pool does exactly this) must
  // take the busy-inline path — the outer Run holds the submit lock for
  // its whole duration — and complete every sub-index on the task's own
  // thread. Under a waiting submit lock this test
  // deadlocks: the inner Run would park on a lock its own batch holds.
  WorkerPool pool;
  constexpr size_t kOuter = 4;
  constexpr size_t kInner = 5;
  std::atomic<int> inner_ran{0};
  std::function<void(size_t)> outer = [&](size_t) {
    std::function<void(size_t)> inner = [&](size_t) { ++inner_ran; };
    pool.Run(kInner, 4, inner);
  };
  pool.Run(kOuter, 3, outer);
  EXPECT_EQ(inner_ran.load(), static_cast<int>(kOuter * kInner));

  // Exceptions from a NESTED batch stay contained with the usual
  // semantics: every inner index still runs, the first inner exception
  // resurfaces on the outer task (its submitter), and — rethrown there —
  // is contained again by the OUTER batch, reaching the real submitter
  // exactly once. The pool survives for later batches.
  std::atomic<int> inner_ok{0};
  std::function<void(size_t)> outer_throwing = [&](size_t) {
    std::function<void(size_t)> inner = [&](size_t i) {
      if (i == 1) throw std::runtime_error("nested boom");
      ++inner_ok;
    };
    pool.Run(kInner, 4, inner);
  };
  try {
    pool.Run(kOuter, 3, outer_throwing);
    FAIL() << "expected the nested exception to resurface";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "nested boom");
  }
  EXPECT_EQ(inner_ok.load(), static_cast<int>(kOuter * (kInner - 1)));

  std::atomic<int> clean{0};
  std::function<void(size_t)> count = [&](size_t) { ++clean; };
  pool.Run(8, 4, count);
  EXPECT_EQ(clean.load(), 8);
}

// --- Serve-while-ingest: readers pinned across appends -------------------

TEST(SessionStress, MultiReaderSingleAppenderSoakHoldsValueAndBudget) {
  // One appender thread grows a relation under the session while reader
  // threads pin and query it — no quiescence, catch-up running
  // cooperatively on whichever reader wins the try-lock, under enough
  // arbiter pressure that claims, evictions, and publishes interleave.
  // Every observed value must match the cold reference at the reader's
  // pinned row count, and the budget invariant must hold at the end. The
  // TSan CI leg runs this test.
  Rng rng(970);
  const uint32_t num_attrs = 4;
  const uint32_t domain = 3;
  const uint32_t kBatches = 5;
  auto draw_rows = [&rng, num_attrs, domain](uint32_t count) {
    std::vector<std::vector<uint32_t>> rows(
        count, std::vector<uint32_t>(num_attrs));
    for (auto& row : rows) {
      for (uint32_t a = 0; a < num_attrs; ++a) {
        row[a] = static_cast<uint32_t>(rng.UniformU64(domain));
      }
    }
    return rows;
  };
  auto rows = draw_rows(100);
  std::vector<std::vector<std::vector<uint32_t>>> batches;
  for (uint32_t k = 0; k < kBatches; ++k) batches.push_back(draw_rows(40));

  auto from_rows = [num_attrs](
                       const std::vector<std::vector<uint32_t>>& content) {
    std::vector<uint64_t> dims(num_attrs, 2);
    RelationBuilder b(Schema::MakeSynthetic(dims).value());
    for (const auto& row : content) b.AddRow(row);
    return std::move(b).Build(/*dedupe=*/false);
  };
  // Cold reference at every batch boundary (the only pinnable row counts).
  std::unordered_map<uint64_t, std::vector<double>> expected;
  {
    auto prefix = rows;
    auto record = [&] {
      Relation cold = from_rows(prefix);
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

  SessionOptions opts;
  opts.engine.cache_budget_bytes = 24 << 10;  // small: evictions mid-soak
  AnalysisSession session(opts);
  Relation r = from_rows(rows);
  EntropyEngine& engine = session.EngineFor(r);
  engine.Entropy(AttrSet{0, 1});

  struct Obs {
    uint64_t rows;
    uint32_t mask;
    double h;
  };
  constexpr int kReaders = 4;
  std::vector<std::vector<Obs>> observed(kReaders);
  std::atomic<bool> done{false};
  // Start barrier: the appender waits until every reader has recorded one
  // observation, so the soak never depends on the scheduler running the
  // readers before the last batch lands.
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&engine, &observed, &done, &started, t] {
      Rng trng(9800 + static_cast<uint64_t>(t));
      auto& out = observed[static_cast<size_t>(t)];
      bool first = true;
      do {
        // No maintenance thread here: catch-up is purely cooperative, so
        // readers poll for new epochs themselves.
        if (trng.Bernoulli(0.5)) engine.CatchUp();
        const EpochPin pin = engine.Pin();
        for (int q = 0; q < 3; ++q) {
          const uint32_t mask =
              1 + static_cast<uint32_t>(trng.UniformU64(15));
          out.push_back({pin.rows, mask,
                         engine.EntropyAt(AttrSet::FromMask(mask), pin)});
        }
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
  for (const auto& batch : batches) {
    ASSERT_TRUE(r.AppendBatch(batch).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(400));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

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
  engine.CatchUp();
  const std::vector<double>& final_vals = expected.at(r.NumRows());
  for (uint64_t mask = 1; mask < 16; ++mask) {
    EXPECT_EQ(engine.Entropy(AttrSet::FromMask(mask)), final_vals[mask])
        << mask;
  }
  EXPECT_LE(session.CacheBytes(), opts.engine.cache_budget_bytes);
}

// --- Cross-engine concurrency on one arbiter ----------------------------

TEST(SessionConcurrency, TwoEngineConcurrentBatchesAreByteIdenticalToSerial) {
  Rng rng(960);
  Relation r1 = testing_util::RandomTestRelation(&rng, 6, 3, 200);
  Relation r2 = testing_util::RandomTestRelation(&rng, 6, 4, 160);
  std::vector<AttrSet> sets;
  for (uint32_t m = 1; m < 64; ++m) sets.push_back(AttrSet::FromMask(m));

  // Serial reference: one engine after the other, huge shared budget (no
  // evictions), each engine computing on the calling thread.
  SessionOptions opts;
  opts.engine.cache_budget_bytes = size_t{1} << 30;
  opts.engine.num_threads = 1;
  AnalysisSession serial(opts);
  const std::vector<double> want1 = serial.EngineFor(r1).BatchEntropy(sets);
  const std::vector<double> want2 = serial.EngineFor(r2).BatchEntropy(sets);

  // Concurrent: the two engines batch simultaneously from two threads.
  // Each engine still computes serially (num_threads = 1), so its own
  // refinement order is fixed; the only concurrency is the shared arbiter
  // taking charges and touches from both engines at once. Values must be
  // byte-identical to the serial run.
  for (int round = 0; round < 5; ++round) {
    AnalysisSession concurrent(opts);
    EntropyEngine& e1 = concurrent.EngineFor(r1);
    EntropyEngine& e2 = concurrent.EngineFor(r2);
    std::vector<double> got1, got2;
    std::thread t1([&] { got1 = e1.BatchEntropy(sets); });
    std::thread t2([&] { got2 = e2.BatchEntropy(sets); });
    t1.join();
    t2.join();
    ASSERT_EQ(got1.size(), want1.size());
    ASSERT_EQ(got2.size(), want2.size());
    for (size_t i = 0; i < sets.size(); ++i) {
      EXPECT_EQ(got1[i], want1[i]) << "round " << round << " set "
                                   << sets[i].ToString();
      EXPECT_EQ(got2[i], want2[i]) << "round " << round << " set "
                                   << sets[i].ToString();
    }
  }
}

TEST(SessionConcurrency, FanOutUnderEvictionPressureStaysCorrect) {
  // ~19k distinct rows each: with nothing surviving the budget, every
  // subset of two to five attributes is a cold miss, and each of those
  // levels prices above the work gate's two-participant threshold.
  Rng rng(961);
  Relation r1 = testing_util::RandomTestRelation(&rng, 6, 8, 20000);
  Relation r2 = testing_util::RandomTestRelation(&rng, 6, 7, 20000);
  std::vector<AttrSet> sets;
  for (uint32_t m = 1; m < 64; ++m) sets.push_back(AttrSet::FromMask(m));

  // Full fan-out (both engines share one pool) under a budget small enough
  // that the arbiter evicts across engines mid-batch. Values are checked
  // against the legacy reference; the budget invariant must hold at the
  // end, and under TSan this is the hottest charge/evict/drop interleaving
  // the engine has.
  ArbiterOptions arb;
  arb.budget_bytes = 8 << 10;
  arb.engine_floor_bytes = 1 << 10;
  SessionOptions opts;
  opts.engine.num_threads = 4;
  opts.engine.worker_pool = std::make_shared<WorkerPool>();
  opts.engine.cache_arbiter = std::make_shared<CacheArbiter>(arb);
  AnalysisSession session(opts);
  EntropyEngine& e1 = session.EngineFor(r1);
  EntropyEngine& e2 = session.EngineFor(r2);
  std::vector<double> got1, got2;
  std::thread t1([&] { got1 = e1.BatchEntropy(sets); });
  std::thread t2([&] { got2 = e2.BatchEntropy(sets); });
  t1.join();
  t2.join();
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(got1[i], EntropyOf(r1, sets[i]));
    EXPECT_EQ(got2[i], EntropyOf(r2, sets[i]));
  }
  EXPECT_LE(session.CacheBytes(), arb.budget_bytes);
  EXPECT_GT(session.cache_arbiter()->Stats().evictions, 0u);
  EXPECT_GT(opts.engine.worker_pool->NumThreads(), 0u);
}

}  // namespace
}  // namespace ajd
