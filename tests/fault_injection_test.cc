// Fault-injection soak: every registered failpoint (util/failpoint.h) is
// armed — alone and in combination, under one-shot / every-Nth /
// probability-with-seed policies — while a session-stress workload churns
// appends, CSV ingestion, engine queries, epoch catch-ups, and streaming
// monitoring. After every injected fault the suite asserts the robustness
// contract the headers promise:
//   (a) the process survives — faults surface as Status or as a contained
//       std::exception on the calling thread, never as an abort;
//   (b) the cache arbiter's accounted bytes never exceed its budget (no
//       leaked charges, no double discharges — even when catch-up drops
//       entries or aborts before publish);
//   (c) every subsequently served entropy equals the fault-free cold
//       reference (info/entropy.h EntropyOf) to 1e-9.
// Plus focused per-layer regressions: all-or-nothing append rollback
// (codes, strings/dictionaries, CSV batches with resume), engine query
// faults, degraded and aborted catch-ups, and streaming quarantine under
// injected (not just deterministic) faults.
//
// The whole file is compiled in every build; without AJD_ENABLE_FAILPOINTS
// the injection sites are compiled out, so every test that needs a fault
// to actually fire GTEST_SKIPs. The registry's policy arithmetic is
// build-independent and tested unconditionally.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/streaming.h"
#include "engine/analysis_session.h"
#include "engine/cache_arbiter.h"
#include "engine/entropy_engine.h"
#include "info/entropy.h"
#include "io/csv.h"
#include "persist/persistent_store.h"
#include "random/rng.h"
#include "relation/attr_set.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "test_util.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace ajd {
namespace {

FailpointRegistry& Reg() { return FailpointRegistry::Instance(); }

/// Leaves no failpoint armed behind a test, pass or fail.
struct DisarmOnExit {
  ~DisarmOnExit() { Reg().DisarmAll(); }
};

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

std::vector<std::vector<std::string>> RandomStringRows(Rng* rng,
                                                       uint32_t num_attrs,
                                                       uint32_t domain,
                                                       uint32_t count) {
  std::vector<std::vector<std::string>> rows(
      count, std::vector<std::string>(num_attrs));
  for (auto& row : rows) {
    for (uint32_t a = 0; a < num_attrs; ++a) {
      row[a] = "v" + std::to_string(rng->UniformU64(domain));
    }
  }
  return rows;
}

AttrSet RandomNonEmptySubset(Rng* rng, uint32_t num_attrs) {
  const uint64_t limit = uint64_t{1} << num_attrs;
  return AttrSet::FromMask(1 + rng->UniformU64(limit - 1));
}

Relation EmptyStringRelation(const std::vector<std::string>& names) {
  Result<Schema> schema = Schema::MakeUniform(names, 1);
  AJD_CHECK(schema.ok());
  RelationBuilder b(std::move(schema).value());
  return std::move(b).Build(/*dedupe=*/false);
}

// ---------------------------------------------------------------------------
// Registry policy arithmetic — build-independent (ShouldFail is a plain
// method; the macros are only the production call sites).
// ---------------------------------------------------------------------------

TEST(FailpointRegistryTest, EveryNthFiresOnSchedule) {
  DisarmOnExit guard;
  Reg().Arm("test/every_nth", FailpointConfig::EveryNth(3, 1));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(Reg().ShouldFail("test/every_nth"));
  }
  // Evaluations 1..9 with one skipped: fires on evals 4 and 7.
  const std::vector<bool> want = {false, false, false, true, false,
                                  false, true,  false, false};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(Reg().Evaluations("test/every_nth"), 9u);
  EXPECT_EQ(Reg().Triggers("test/every_nth"), 2u);
}

TEST(FailpointRegistryTest, OneShotFiresExactlyOnce) {
  DisarmOnExit guard;
  Reg().Arm("test/one_shot", FailpointConfig::OneShot(2));
  int fires = 0;
  for (int i = 0; i < 8; ++i) fires += Reg().ShouldFail("test/one_shot");
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(Reg().Triggers("test/one_shot"), 1u);
}

TEST(FailpointRegistryTest, ProbabilityIsSeededAndReproducible) {
  DisarmOnExit guard;
  auto draw = [&] {
    Reg().Arm("test/prob", FailpointConfig::Probability(0.5, 1234));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(Reg().ShouldFail("test/prob"));
    return fired;
  };
  const std::vector<bool> first = draw();
  EXPECT_EQ(first, draw());  // re-arming with the same seed replays exactly
  const uint64_t triggers = Reg().Triggers("test/prob");
  EXPECT_GT(triggers, 16u);  // p=0.5 over 64 draws; loose deterministic band
  EXPECT_LT(triggers, 48u);
}

TEST(FailpointRegistryTest, UnarmedAndDisarmedPointsNeverFire) {
  DisarmOnExit guard;
  EXPECT_FALSE(Reg().ShouldFail("test/never_armed"));
  Reg().Arm("test/disarm", FailpointConfig::EveryNth(1));
  EXPECT_TRUE(Reg().ShouldFail("test/disarm"));
  Reg().Disarm("test/disarm");
  EXPECT_FALSE(Reg().ShouldFail("test/disarm"));
  // Counters survive disarm for post-hoc assertions.
  EXPECT_EQ(Reg().Triggers("test/disarm"), 1u);
}

TEST(FailpointRegistryTest, CatalogListsEveryCompiledSite) {
  const std::vector<std::string>& catalog = FailpointRegistry::Catalog();
  const std::vector<std::string> want = {
      failpoints::kRelationAppendReserve, failpoints::kRelationAppendStage,
      failpoints::kRelationIntern,        failpoints::kCsvBatch,
      failpoints::kEngineComputePartition, failpoints::kEngineBatchTask,
      failpoints::kEngineCatchupExtend,   failpoints::kEngineCatchupPublish,
      failpoints::kStreamingIngestBatch,  failpoints::kPersistManifestAppend,
      failpoints::kPersistCompactRename};
  EXPECT_EQ(catalog, want);
}

// ---------------------------------------------------------------------------
// Injection tests — need the sites compiled in.
// ---------------------------------------------------------------------------

#ifdef AJD_ENABLE_FAILPOINTS
constexpr bool kFailpointsCompiledIn = true;
#else
constexpr bool kFailpointsCompiledIn = false;
#endif

#define AJD_REQUIRE_FAILPOINT_BUILD()                                     \
  do {                                                                    \
    if (!kFailpointsCompiledIn) {                                         \
      GTEST_SKIP() << "built without -DAJD_ENABLE_FAILPOINTS=ON; "        \
                      "injection sites are compiled out";                 \
    }                                                                     \
  } while (0)

TEST(FaultInjection, AppendBatchRollsBackBitIdentical) {
  AJD_REQUIRE_FAILPOINT_BUILD();
  DisarmOnExit guard;
  Rng rng(11);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 4, 40);
  const std::vector<uint32_t> data_before = r.data();
  const uint64_t rows_before = r.NumRows();
  const uint64_t epoch_before = r.epoch();
  const std::vector<std::vector<uint32_t>> batch = RandomRows(&rng, 3, 4, 12);

  // Fail at the reserve and then mid-staging (row 6 of 12): both must
  // leave rows, row count, and epoch untouched.
  for (const char* point : {failpoints::kRelationAppendReserve,
                            failpoints::kRelationAppendStage}) {
    Reg().Arm(point, FailpointConfig::OneShot(
                         point == failpoints::kRelationAppendStage ? 6 : 0));
    Status s = r.AppendBatch(batch);
    EXPECT_EQ(s.code(), StatusCode::kCapacityExceeded) << point;
    EXPECT_GE(Reg().Triggers(point), 1u) << point;
    EXPECT_EQ(r.NumRows(), rows_before) << point;
    EXPECT_EQ(r.epoch(), epoch_before) << point;
    EXPECT_EQ(r.data(), data_before) << point;
    Reg().Disarm(point);
  }

  // With the faults gone the very same batch lands (dedupe still works
  // after the rollback dropped the lazily built membership index).
  ASSERT_TRUE(r.AppendBatch(batch, /*dedupe=*/true).ok());
  EXPECT_GT(r.NumRows(), rows_before);
  EXPECT_EQ(r.epoch(), epoch_before + 1);
}

TEST(FaultInjection, FailedAppendLeavesTheDistinctPrefix) {
  AJD_REQUIRE_FAILPOINT_BUILD();
  DisarmOnExit guard;
  Rng rng(13);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 4, 40);
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, 3, 5, 10), /*dedupe=*/true).ok());
  const uint64_t watermark = r.DistinctPrefixRows();
  ASSERT_EQ(watermark, r.NumRows());
  // Fresh rows (codes past every earlier domain), so the batch would have
  // raised the watermark had it landed.
  std::vector<std::vector<uint32_t>> fresh(8, std::vector<uint32_t>(3));
  for (uint32_t i = 0; i < fresh.size(); ++i) fresh[i] = {100 + i, 0, 0};
  for (const char* point : {failpoints::kRelationAppendReserve,
                            failpoints::kRelationAppendStage}) {
    for (const bool dedupe : {true, false}) {
      Reg().Arm(point, FailpointConfig::OneShot(
                           point == failpoints::kRelationAppendStage ? 4 : 0));
      EXPECT_EQ(r.AppendBatch(fresh, dedupe).code(),
                StatusCode::kCapacityExceeded)
          << point;
      EXPECT_EQ(r.DistinctPrefixRows(), watermark) << point;
      Reg().Disarm(point);
    }
  }
  // The rollback dropped the row index; a multiset append cannot raise the
  // watermark without it, and the next deduped append rebuilds it.
  ASSERT_TRUE(r.AppendBatch({fresh[0]}, /*dedupe=*/false).ok());
  EXPECT_EQ(r.DistinctPrefixRows(), watermark);
  ASSERT_TRUE(r.AppendBatch({fresh[1]}, /*dedupe=*/true).ok());
  EXPECT_EQ(r.DistinctPrefixRows(), r.NumRows());
}

TEST(FaultInjection, AppendStringBatchRollsBackDictionaries) {
  AJD_REQUIRE_FAILPOINT_BUILD();
  DisarmOnExit guard;
  Rng rng(12);
  Relation r = EmptyStringRelation({"a", "b", "c"});
  ASSERT_TRUE(r.AppendStringBatch(RandomStringRows(&rng, 3, 4, 20)).ok());
  const std::vector<uint32_t> data_before = r.data();
  const uint64_t rows_before = r.NumRows();
  std::vector<uint32_t> dict_sizes_before;
  for (uint32_t a = 0; a < 3; ++a) {
    ASSERT_NE(r.dict(a), nullptr);
    dict_sizes_before.push_back(r.dict(a)->size());
  }

  // A batch full of FRESH values, failing mid-intern: the entries staged
  // before the fault must be truncated back out of every dictionary.
  std::vector<std::vector<std::string>> fresh(
      8, std::vector<std::string>(3));
  for (size_t i = 0; i < fresh.size(); ++i) {
    for (uint32_t a = 0; a < 3; ++a) {
      fresh[i][a] = "fresh_" + std::to_string(i) + "_" + std::to_string(a);
    }
  }
  Reg().Arm(failpoints::kRelationIntern, FailpointConfig::OneShot(10));
  Status s = r.AppendStringBatch(fresh);
  EXPECT_EQ(s.code(), StatusCode::kCapacityExceeded);
  EXPECT_GE(Reg().Triggers(failpoints::kRelationIntern), 1u);
  EXPECT_EQ(r.NumRows(), rows_before);
  EXPECT_EQ(r.data(), data_before);
  for (uint32_t a = 0; a < 3; ++a) {
    EXPECT_EQ(r.dict(a)->size(), dict_sizes_before[a]) << "attr " << a;
    EXPECT_FALSE(r.dict(a)->Lookup("fresh_0_" + std::to_string(a)));
  }

  // Retry clean: the fresh values intern again from the rolled-back state
  // and get the same dense codes a never-failed run would have assigned.
  Reg().DisarmAll();
  ASSERT_TRUE(r.AppendStringBatch(fresh).ok());
  EXPECT_EQ(r.NumRows(), rows_before + fresh.size());
  EXPECT_EQ(r.dict(0)->Lookup("fresh_0_0"),
            std::optional<uint32_t>(dict_sizes_before[0]));
}

TEST(FaultInjection, CsvBatchFaultReportsCommitsAndResumes) {
  AJD_REQUIRE_FAILPOINT_BUILD();
  DisarmOnExit guard;
  const std::string text =
      "a,b\n"
      "x1,y1\nx2,y2\n"
      "x3,y3\nx4,y4\n"
      "x5,y5\nx6,y6\n";
  CsvOptions opts;
  opts.dedupe = false;

  // Fault-free reference ingest.
  Relation clean = EmptyStringRelation({"a", "b"});
  {
    std::istringstream in(text);
    ASSERT_TRUE(AppendCsvBatches(in, &clean, opts, 2).ok());
    ASSERT_EQ(clean.NumRows(), 6u);
  }

  // Fail on the second batch: exactly one batch committed, and the
  // summary's resume offset restarts the ingest right where it stopped.
  Relation r = EmptyStringRelation({"a", "b"});
  Reg().Arm(failpoints::kCsvBatch, FailpointConfig::OneShot(1));
  CsvIngestSummary summary;
  std::istringstream in(text);
  Status s = AppendCsvBatches(in, &r, opts, 2, &summary);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(summary.batches_committed, 1u);
  EXPECT_EQ(summary.rows_read, 2u);
  EXPECT_EQ(summary.rows_appended, 2u);
  EXPECT_EQ(r.NumRows(), 2u);
  ASSERT_GT(summary.resume_offset, 0);

  Reg().DisarmAll();
  CsvOptions resume = opts;
  resume.has_header = false;
  std::istringstream rest(text.substr(
      static_cast<size_t>(summary.resume_offset)));
  CsvIngestSummary resumed;
  ASSERT_TRUE(AppendCsvBatches(rest, &r, resume, 2, &resumed).ok());
  EXPECT_EQ(resumed.rows_appended, 4u);
  EXPECT_EQ(r.NumRows(), clean.NumRows());
  EXPECT_EQ(r.data(), clean.data());  // identical to the fault-free ingest
}

TEST(FaultInjection, EngineQueryFaultsAreContainedAndRecoverable) {
  AJD_REQUIRE_FAILPOINT_BUILD();
  DisarmOnExit guard;
  Rng rng(13);
  Relation r = testing_util::RandomTestRelation(&rng, 4, 30, 60000);
  EngineOptions opts;
  opts.num_threads = 4;
  EntropyEngine engine(&r, opts);

  // A compute-path allocation failure propagates to the calling thread as
  // bad_alloc — never an abort — and caches nothing broken.
  Reg().Arm(failpoints::kEngineComputePartition, FailpointConfig::OneShot());
  EXPECT_THROW(engine.Entropy(AttrSet::FromMask(0xF)), std::bad_alloc);

  // A task dying inside a pooled batch is contained by the WorkerPool: the
  // batch completes and the first error rethrows on the submitter. All 15
  // subsets miss cold, and at ~58k rows the two- and three-attribute levels
  // each price above the work gate, so the batch runs on the pool.
  Reg().Arm(failpoints::kEngineBatchTask, FailpointConfig::OneShot());
  std::vector<AttrSet> sets;
  for (uint64_t mask = 1; mask < 16; ++mask) {
    sets.push_back(AttrSet::FromMask(mask));
  }
  EXPECT_THROW(engine.BatchEntropy(sets), InjectedFault);
  EXPECT_GE(Reg().Triggers(failpoints::kEngineBatchTask), 1u);

  // Disarmed, the same queries serve the cold reference.
  Reg().DisarmAll();
  EXPECT_NEAR(engine.Entropy(AttrSet::FromMask(0xF)),
              EntropyOf(r, AttrSet::FromMask(0xF)), 1e-9);
  std::vector<double> got = engine.BatchEntropy(sets);
  for (size_t k = 0; k < sets.size(); ++k) {
    EXPECT_NEAR(got[k], EntropyOf(r, sets[k]), 1e-9);
  }
}

TEST(FaultInjection, CatchUpDegradesByDroppingFailedEntries) {
  AJD_REQUIRE_FAILPOINT_BUILD();
  DisarmOnExit guard;
  Rng rng(14);
  Relation r = testing_util::RandomTestRelation(&rng, 4, 4, 100);
  EntropyEngine engine(&r);

  // Warm a spread of partitions, then append and catch up with EVERY
  // extension failing: the entries drop, the new epoch still publishes,
  // and reads recompute cold — bitwise-correct against the reference.
  std::vector<AttrSet> sets;
  for (int k = 0; k < 10; ++k) sets.push_back(RandomNonEmptySubset(&rng, 4));
  for (AttrSet s : sets) engine.Entropy(s);
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, 4, 4, 30)).ok());

  Reg().Arm(failpoints::kEngineCatchupExtend, FailpointConfig::EveryNth(1));
  for (AttrSet s : sets) {
    EXPECT_NEAR(engine.Entropy(s), EntropyOf(r, s), 1e-9)
        << "attrs=" << s.ToString();
  }
  EXPECT_GT(engine.Stats().catchup_dropped, 0u);
  EXPECT_EQ(engine.synced_epoch(), r.epoch());  // degraded, but published
}

TEST(FaultInjection, CatchUpAbortBeforePublishRetriesNextQuery) {
  AJD_REQUIRE_FAILPOINT_BUILD();
  DisarmOnExit guard;
  Rng rng(15);
  Relation r = testing_util::RandomTestRelation(&rng, 4, 4, 100);
  EntropyEngine engine(&r);
  const AttrSet probe = AttrSet::FromMask(0x7);
  engine.Entropy(probe);

  // Keep a snapshot of the pre-append prefix: while catch-up keeps
  // aborting, readers stay pinned there and must serve ITS cold answers.
  const Relation prefix = r;
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, 4, 4, 25)).ok());

  Reg().Arm(failpoints::kEngineCatchupPublish, FailpointConfig::EveryNth(1));
  const uint64_t epoch_before = engine.synced_epoch();
  EXPECT_NEAR(engine.Entropy(probe), EntropyOf(prefix, probe), 1e-9);
  EXPECT_EQ(engine.synced_epoch(), epoch_before);  // stamp unchanged
  EXPECT_GT(engine.Stats().catchup_aborts, 0u);

  // The next query after the fault clears retries catch-up and serves the
  // full relation.
  Reg().DisarmAll();
  EXPECT_NEAR(engine.Entropy(probe), EntropyOf(r, probe), 1e-9);
  EXPECT_EQ(engine.synced_epoch(), r.epoch());
}

TEST(FaultInjection, StreamingQuarantinesInjectedPoisonBatches) {
  AJD_REQUIRE_FAILPOINT_BUILD();
  DisarmOnExit guard;
  Rng rng(16);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 30);
  StreamingOptions opts;
  opts.drift_threshold = 0.0;
  opts.batch_fault_policy = BatchFaultPolicy::kRetryThenSkip;
  opts.max_batch_retries = 1;
  StreamingLossMonitor monitor(
      &r, testing_util::RandomPathJoinTree(&rng, 3), opts);

  // One-shot fault: the retry succeeds, nothing quarantines.
  Reg().Arm(failpoints::kStreamingIngestBatch, FailpointConfig::OneShot());
  Result<StreamingPoint> retried =
      monitor.IngestBatch(RandomRows(&rng, 3, 3, 5));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value().batch_rows, 5u);
  EXPECT_EQ(monitor.NumQuarantinedBatches(), 0u);

  // Persistent fault: retries exhaust, the batch quarantines, and the
  // stream keeps going.
  Reg().Arm(failpoints::kStreamingIngestBatch, FailpointConfig::EveryNth(1));
  const uint64_t rows_before = r.NumRows();
  Result<StreamingPoint> skipped =
      monitor.IngestBatch(RandomRows(&rng, 3, 3, 5));
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped.value().batch_rows, 0u);
  EXPECT_EQ(monitor.NumQuarantinedBatches(), 1u);
  EXPECT_EQ(monitor.LastQuarantineError().code(), StatusCode::kInternal);
  EXPECT_EQ(r.NumRows(), rows_before);

  Reg().DisarmAll();
  ASSERT_TRUE(monitor.IngestBatch(RandomRows(&rng, 3, 3, 5)).ok());
  EXPECT_EQ(monitor.NumQuarantinedBatches(), 1u);
}

TEST(FaultInjection, CatchUpFaultsNeverLeakArbiterCharges) {
  AJD_REQUIRE_FAILPOINT_BUILD();
  DisarmOnExit guard;
  Rng rng(17);
  ArbiterOptions aopts;
  aopts.budget_bytes = size_t{1} << 20;  // tiny: constant eviction pressure
  auto arbiter = std::make_shared<CacheArbiter>(aopts);
  {
    SessionOptions sopts;
    sopts.engine.cache_arbiter = arbiter;
    AnalysisSession session(sopts);
    Relation r1 = testing_util::RandomTestRelation(&rng, 4, 4, 80);
    Relation r2 = testing_util::RandomTestRelation(&rng, 3, 5, 80);

    Reg().Arm(failpoints::kEngineCatchupExtend,
              FailpointConfig::Probability(0.6, 71));
    Reg().Arm(failpoints::kEngineCatchupPublish,
              FailpointConfig::Probability(0.3, 72));
    for (int it = 0; it < 25; ++it) {
      for (Relation* r : {&r1, &r2}) {
        try {
          session.EngineFor(*r).Entropy(
              RandomNonEmptySubset(&rng, r->NumAttrs()));
        } catch (const std::exception&) {
          // Injected faults may surface here; containment is the point.
        }
        ASSERT_LE(arbiter->AccountedBytes(), arbiter->budget_bytes());
        ASSERT_TRUE(
            r->AppendBatch(RandomRows(&rng, r->NumAttrs(), 4, 6)).ok());
      }
    }
    EXPECT_GT(Reg().Triggers(failpoints::kEngineCatchupExtend) +
                  Reg().Triggers(failpoints::kEngineCatchupPublish),
              0u);

    // Disarmed, both relations serve exact cold answers again.
    Reg().DisarmAll();
    for (Relation* r : {&r1, &r2}) {
      for (int k = 0; k < 6; ++k) {
        AttrSet s = RandomNonEmptySubset(&rng, r->NumAttrs());
        EXPECT_NEAR(session.EngineFor(*r).Entropy(s), EntropyOf(*r, s),
                    1e-9);
      }
      ASSERT_LE(arbiter->AccountedBytes(), arbiter->budget_bytes());
    }
  }
  // Every engine released its footprint at destruction: a leaked charge or
  // a double discharge would show up as a nonzero (or wrapped) residue.
  EXPECT_EQ(arbiter->AccountedBytes(), 0u);
  EXPECT_EQ(arbiter->NumEngines(), 0u);
}

// ---------------------------------------------------------------------------
// The capstone soak: every catalogued failpoint, three policies each, then
// everything at once — under a workload that routes through every layer.
// ---------------------------------------------------------------------------

class FaultSoak {
 public:
  explicit FaultSoak(uint64_t seed)
      : rng_(seed),
        code_rel_(testing_util::RandomTestRelation(&rng_, 4, 4, 80)),
        batch_rel_(testing_util::RandomTestRelation(&rng_, 4, 30, 60000)),
        stream_rel_(testing_util::RandomTestRelation(&rng_, 3, 3, 40)),
        string_rel_(EmptyStringRelation({"a", "b", "c"})),
        csv_rel_(EmptyStringRelation({"a", "b"})) {
    // A live persistent store so the soak drives the persist/* failpoints
    // too: puts (manifest_append) and periodic compactions
    // (compact_rename). Its API is exception-free —
    // under injected faults every op must still return a Status and leave
    // the store usable.
    store_dir_ = std::filesystem::temp_directory_path() /
                 ("ajd_fault_soak_" +
                  std::to_string(static_cast<unsigned long>(::getpid())));
    std::filesystem::remove_all(store_dir_);
    auto opened = PersistentCacheStore::Open(store_dir_.string());
    EXPECT_TRUE(opened.ok());
    store_ = opened.value();
    SessionOptions sopts;
    sopts.engine.num_threads = 4;
    sopts.engine.cache_budget_bytes = size_t{2} << 20;
    session_ = std::make_unique<AnalysisSession>(sopts);
    StreamingOptions mopts;
    mopts.drift_threshold = 0.0;
    mopts.batch_fault_policy = BatchFaultPolicy::kRetryThenSkip;
    mopts.max_batch_retries = 1;
    monitor_ = std::make_unique<StreamingLossMonitor>(
        &stream_rel_, testing_util::RandomPathJoinTree(&rng_, 3), mopts);
    EXPECT_TRUE(
        string_rel_.AppendStringBatch(RandomStringRows(&rng_, 3, 5, 10))
            .ok());
  }

  ~FaultSoak() {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }

  /// One iteration of the mixed workload. Every operation either succeeds,
  /// returns a Status, or throws a contained std::exception — anything
  /// else (abort, budget breach) fails the test on the spot.
  void Drive(int iterations) {
    for (int it = 0; it < iterations; ++it) {
      // Engine queries: point + batches (compute_partition, batch_task).
      std::vector<AttrSet> sets;
      for (uint64_t mask = 1; mask < 16; ++mask) {
        sets.push_back(AttrSet::FromMask(mask));
      }
      try {
        EntropyEngine& e = session_->EngineFor(code_rel_);
        e.Entropy(RandomNonEmptySubset(&rng_, 4));
        // Every non-empty subset, after an append staled the cache: too
        // little work for the pool, so the misses run inline.
        e.BatchEntropy(sets);
      } catch (const std::exception&) {
      }
      try {
        // The same batch over a relation the session has just released:
        // every term misses cold, and ~58k rows price it above the work
        // gate, so it fans out on the pool.
        session_->Release(batch_rel_);
        session_->EngineFor(batch_rel_).BatchEntropy(sets);
      } catch (const std::exception&) {
      }
      CheckBudget();
      // Code append (append_reserve, append_stage) — Status either way,
      // all-or-nothing on failure.
      (void)code_rel_.AppendBatch(RandomRows(&rng_, 4, 4, 8));
      // Re-query: drives epoch catch-up (catchup_extend,
      // catchup_publish).
      try {
        session_->EngineFor(code_rel_).Entropy(
            RandomNonEmptySubset(&rng_, 4));
      } catch (const std::exception&) {
      }
      CheckBudget();
      // Dictionary append (intern).
      (void)string_rel_.AppendStringBatch(RandomStringRows(&rng_, 3, 5, 6));
      // CSV ingestion (csv_batch).
      {
        std::istringstream in("a,b\np" + std::to_string(it) + ",q\nr,s\n");
        CsvOptions copts;
        copts.dedupe = false;
        (void)AppendCsvBatches(in, &csv_rel_, copts, 1);
      }
      // Streaming ingest (ingest_batch) with quarantine-on-exhaustion —
      // the stream must survive no matter what fires.
      (void)monitor_->IngestBatch(RandomRows(&rng_, 3, 3, 4));
      // Persistent store ops (manifest_append, compact_rename). A failed
      // put leaves its batch unpersisted; a persisted value must read back
      // exactly. Either way the store object must stay usable across the
      // whole soak.
      {
        PersistedEntryMeta meta;
        meta.fingerprint = 0xFA0C + (it % 4);
        meta.attrs = RandomNonEmptySubset(&rng_, 4);
        // A fresh key per put: a repeated key dedupes without reaching
        // the journal append, so a soak that had already put every
        // (fingerprint, attrs, rows) key would stop driving it.
        meta.rows = 40 + puts_++;
        meta.entropy = 1.5;
        PersistedEntryMeta second = meta;
        second.rows = 40 + puts_++;
        const bool put = store_->Put({meta, second}).ok();
        double got = 0.0;
        const bool found = store_->LookupExact(meta, &got);
        EXPECT_EQ(found, put);
        if (found) {
          EXPECT_EQ(got, 1.5);
        }
        // Every other iteration so even a two-iteration Drive() reaches
        // the compact_rename site at least once.
        if (it % 2 == 1) (void)store_->Compact();
      }
      CheckBudget();
    }
  }

  /// With every failpoint disarmed: every served entropy across every
  /// relation the soak touched must equal the fault-free cold reference.
  void VerifyServed() {
    struct Target {
      AnalysisSession* session;
      Relation* rel;
    };
    std::vector<Target> targets = {{session_.get(), &code_rel_},
                                   {session_.get(), &batch_rel_},
                                   {session_.get(), &string_rel_},
                                   {session_.get(), &csv_rel_},
                                   {&monitor_->session(), &stream_rel_}};
    for (Target& t : targets) {
      if (t.rel->NumRows() == 0) continue;
      for (int k = 0; k < 6; ++k) {
        AttrSet s = RandomNonEmptySubset(&rng_, t.rel->NumAttrs());
        ASSERT_NEAR(t.session->EngineFor(*t.rel).Entropy(s),
                    EntropyOf(*t.rel, s), 1e-9)
            << "attrs=" << s.ToString();
      }
    }
    CheckBudget();
  }

 private:
  void CheckBudget() {
    ASSERT_LE(session_->cache_arbiter()->AccountedBytes(),
              session_->cache_arbiter()->budget_bytes());
  }

  Rng rng_;
  Relation code_rel_;
  Relation batch_rel_;
  uint64_t puts_ = 0;
  Relation stream_rel_;
  Relation string_rel_;
  Relation csv_rel_;
  std::filesystem::path store_dir_;
  std::shared_ptr<PersistentCacheStore> store_;
  std::unique_ptr<AnalysisSession> session_;
  std::unique_ptr<StreamingLossMonitor> monitor_;
};

TEST(FaultInjection, SoakEveryFailpointUnderSessionStress) {
  AJD_REQUIRE_FAILPOINT_BUILD();
  DisarmOnExit guard;
  FaultSoak soak(2026);
  std::unordered_map<std::string, uint64_t> fired;

  // Phase 1: each point in isolation under each policy family.
  uint64_t seed = 500;
  for (const std::string& name : FailpointRegistry::Catalog()) {
    const FailpointConfig policies[] = {
        FailpointConfig::OneShot(),
        FailpointConfig::EveryNth(3),
        FailpointConfig::Probability(0.4, ++seed),
    };
    for (const FailpointConfig& cfg : policies) {
      Reg().Arm(name, cfg);
      soak.Drive(2);
      fired[name] += Reg().Triggers(name);
      Reg().DisarmAll();
      soak.VerifyServed();
      if (HasFatalFailure()) return;
    }
  }

  // Phase 2: everything armed at once — faults compound across layers.
  for (const std::string& name : FailpointRegistry::Catalog()) {
    Reg().Arm(name, FailpointConfig::Probability(0.25, ++seed));
  }
  soak.Drive(4);
  for (const std::string& name : FailpointRegistry::Catalog()) {
    fired[name] += Reg().Triggers(name);
  }
  Reg().DisarmAll();
  soak.VerifyServed();

  // Coverage: the soak actually fired every registered failpoint.
  for (const std::string& name : FailpointRegistry::Catalog()) {
    EXPECT_GT(fired[name], 0u) << "failpoint never fired: " << name;
  }
}

}  // namespace
}  // namespace ajd
