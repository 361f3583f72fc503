// StreamingLossMonitor (core/streaming.h) and the chunked CSV ingestion
// path (io/csv.h ReadCsvBatches / AppendCsvBatches): trajectory
// correctness against cold re-analysis, re-mine-on-drift, and file
// ingestion without materializing the whole relation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/loss.h"
#include "core/streaming.h"
#include "engine/entropy_engine.h"
#include "engine/maintenance.h"
#include "info/entropy.h"
#include "info/j_measure.h"
#include "io/csv.h"
#include "jointree/join_tree.h"
#include "random/rng.h"
#include "relation/relation.h"
#include "test_util.h"

namespace ajd {
namespace {

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

Relation EmptyRelation(uint32_t num_attrs, uint64_t domain) {
  std::vector<uint64_t> dims(num_attrs, domain);
  RelationBuilder b(Schema::MakeSynthetic(dims).value());
  return std::move(b).Build(/*dedupe=*/false);
}

TEST(Streaming, TrajectoryMatchesColdAnalysisAtEveryEpoch) {
  Rng rng(8800);
  const uint32_t num_attrs = 4;
  Relation r = EmptyRelation(num_attrs, 3);
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, num_attrs, 3, 30)).ok());
  JoinTree tree = testing_util::RandomPathJoinTree(&rng, num_attrs);

  StreamingOptions opts;
  opts.drift_threshold = 0.0;  // fixed tree: pure monitoring
  opts.compute_exact_loss = true;
  StreamingLossMonitor monitor(&r, tree, opts);

  std::vector<std::vector<std::vector<uint32_t>>> batches;
  for (int k = 0; k < 4; ++k) {
    batches.push_back(RandomRows(&rng, num_attrs, 3, 15));
  }
  for (const auto& batch : batches) {
    Result<StreamingPoint> point = monitor.IngestBatch(batch);
    ASSERT_TRUE(point.ok());
    // Cold reference: J over a fresh relation holding the same rows.
    Relation cold = r;  // copy (same content)
    EXPECT_NEAR(point.value().j, JMeasure(cold, tree), 1e-9);
    EXPECT_NEAR(point.value().rho_lower_bound,
                std::expm1(point.value().j), 1e-12);
    ASSERT_TRUE(point.value().rho.has_value());
    Result<LossReport> loss = ComputeLoss(cold, tree);
    ASSERT_TRUE(loss.ok());
    EXPECT_NEAR(*point.value().rho, loss.value().rho, 1e-9);
    EXPECT_EQ(point.value().rows, r.NumRows());
    EXPECT_EQ(point.value().epoch, r.epoch());
    EXPECT_FALSE(point.value().remined);
  }
  EXPECT_EQ(monitor.trajectory().size(), batches.size());
  EXPECT_EQ(monitor.NumRemines(), 0u);
  // The monitoring reused the engine incrementally: one catch-up per batch.
  EXPECT_EQ(monitor.session().TotalStats().epoch_catchups, batches.size());
}

TEST(Streaming, DedupedStreamCachesNothingWiderThanTheLargestBag) {
  // Over a deduped stream H(chi(T)) is ln N, answered from the relation's
  // distinct-prefix watermark: catch-up must not carry chi(T)'s refinement
  // chain, so no cached partition is wider than the tree's largest bag.
  // J stays bitwise equal to the cold chain over a multiset copy of the
  // same rows (which has no watermark and refines through every column).
  Rng rng(8810);
  const uint32_t num_attrs = 6;
  Relation r = EmptyRelation(num_attrs, 4);
  ASSERT_TRUE(
      r.AppendBatch(RandomRows(&rng, num_attrs, 4, 60), /*dedupe=*/true).ok());
  const JoinTree tree =
      JoinTree::Path({AttrSet{0, 1, 2}, AttrSet{2, 3, 4}, AttrSet{4, 5}})
          .value();
  ASSERT_EQ(tree.AllAttrs(), r.schema().AllAttrs());
  StreamingOptions opts;
  opts.drift_threshold = 0.0;  // fixed tree: pure monitoring
  StreamingLossMonitor monitor(&r, tree, opts);
  for (int k = 0; k < 6; ++k) {
    Result<StreamingPoint> point = monitor.IngestBatch(
        RandomRows(&rng, num_attrs, 4, 25), /*dedupe=*/true);
    ASSERT_TRUE(point.ok());
    ASSERT_EQ(r.DistinctPrefixRows(), r.NumRows());
    RelationBuilder copy(r.schema());
    for (uint64_t i = 0; i < r.NumRows(); ++i) copy.AddRowPtr(r.Row(i));
    const Relation cold = std::move(copy).Build(/*dedupe=*/false);
    EXPECT_EQ(point.value().j, JMeasure(cold, tree)) << "batch " << k;
    const EntropyEngine& engine = monitor.session().EngineFor(r);
    for (uint64_t mask = 1; mask < (uint64_t{1} << num_attrs); ++mask) {
      const AttrSet s = AttrSet::FromMask(mask);
      if (s.Count() > 3) {
        EXPECT_FALSE(engine.CachedPartitionInfo(s, nullptr, nullptr))
            << s.ToString() << " batch " << k;
      }
    }
  }
  // The engine exists from construction: one catch-up per batch.
  EXPECT_EQ(monitor.session().TotalStats().epoch_catchups, 6u);
}

TEST(Streaming, DriftTriggersRemineAndResetsBaseline) {
  // Start on data satisfying the mined tree exactly (an FD-structured
  // relation: X0 determines everything), then append uniform noise: J of
  // the stale tree rises and the monitor must re-mine.
  Rng rng(8801);
  const uint32_t num_attrs = 3;
  Relation r = EmptyRelation(num_attrs, 6);
  std::vector<std::vector<uint32_t>> structured;
  for (uint32_t i = 0; i < 40; ++i) {
    const uint32_t x = i % 6;
    structured.push_back({x, x, x});
  }
  ASSERT_TRUE(r.AppendBatch(structured).ok());

  StreamingOptions opts;
  opts.drift_threshold = 0.05;
  opts.min_batches_between_remines = 1;
  Result<StreamingLossMonitor> made =
      StreamingLossMonitor::WithMinedTree(&r, opts);
  ASSERT_TRUE(made.ok());
  StreamingLossMonitor monitor = std::move(made).value();
  EXPECT_NEAR(monitor.BaselineJ(), 0.0, 1e-9);  // structured data: lossless

  bool remined = false;
  for (int k = 0; k < 6 && !remined; ++k) {
    Result<StreamingPoint> point =
        monitor.IngestBatch(RandomRows(&rng, num_attrs, 6, 60));
    ASSERT_TRUE(point.ok());
    remined = point.value().remined;
    if (remined) {
      ASSERT_TRUE(point.value().j_after_remine.has_value());
      // The new baseline is the re-mined tree's J, which the miner chose
      // to minimize — never worse than the drifted value.
      EXPECT_LE(*point.value().j_after_remine, point.value().j + 1e-12);
      EXPECT_NEAR(monitor.BaselineJ(), *point.value().j_after_remine,
                  1e-12);
    }
  }
  EXPECT_TRUE(remined);
  EXPECT_EQ(monitor.NumRemines(), 1u);
  // The re-mined tree is a valid tree over the schema and is what J is
  // now tracked against.
  EXPECT_NEAR(JMeasure(r, monitor.tree()), monitor.BaselineJ(), 1e-9);
}

TEST(Streaming, RelativeDriftPolicyScalesMarginWithBaselineAndFloor) {
  // Identical structured-then-noise streams under three drift configs:
  //   absolute 0.05                    -> re-mines (the control, as above);
  //   relative 0.5 with a 10-nat floor -> margin = max(0.5 * |0|, 10):
  //                                       the floor absorbs the drift, no
  //                                       re-mine;
  //   relative 0.5 with a 0.01 floor   -> margin = 0.01 near the zero
  //                                       baseline: re-mines like the
  //                                       control.
  Rng rng(8802);
  const uint32_t num_attrs = 3;
  std::vector<std::vector<uint32_t>> structured;
  for (uint32_t i = 0; i < 40; ++i) {
    const uint32_t x = i % 6;
    structured.push_back({x, x, x});
  }
  std::vector<std::vector<std::vector<uint32_t>>> batches;
  for (int k = 0; k < 6; ++k) {
    batches.push_back(RandomRows(&rng, num_attrs, 6, 60));
  }

  auto remines_under = [&](DriftPolicy policy, double floor_nats) {
    Relation r = EmptyRelation(num_attrs, 6);
    EXPECT_TRUE(r.AppendBatch(structured).ok());
    StreamingOptions opts;
    opts.drift_threshold = policy == DriftPolicy::kAbsolute ? 0.05 : 0.5;
    opts.drift_policy = policy;
    opts.drift_floor_nats = floor_nats;
    Result<StreamingLossMonitor> made =
        StreamingLossMonitor::WithMinedTree(&r, opts);
    EXPECT_TRUE(made.ok());
    StreamingLossMonitor monitor = std::move(made).value();
    EXPECT_NEAR(monitor.BaselineJ(), 0.0, 1e-9);
    for (const auto& batch : batches) {
      Result<StreamingPoint> point = monitor.IngestBatch(batch);
      EXPECT_TRUE(point.ok());
    }
    return monitor.NumRemines();
  };

  EXPECT_GT(remines_under(DriftPolicy::kAbsolute, 0.01), 0u);
  EXPECT_EQ(remines_under(DriftPolicy::kRelative, 10.0), 0u);
  EXPECT_GT(remines_under(DriftPolicy::kRelative, 0.01), 0u);
}

TEST(StreamingConcurrency, PinnedQueriesDuringIngestStayExact) {
  // Readers query the monitor's session WHILE batches are ingested: each
  // reader pins the (rows, epoch) stamp it starts with and must get the
  // cold answer at exactly that prefix, even as the monitor's own
  // J-evaluation drives catch-up concurrently. The TSan CI leg runs this.
  Rng rng(8900);
  const uint32_t num_attrs = 3;
  const uint32_t domain = 3;
  Relation r = EmptyRelation(num_attrs, domain);
  auto rows = RandomRows(&rng, num_attrs, domain, 40);
  ASSERT_TRUE(r.AppendBatch(rows).ok());
  const uint32_t kBatches = 4;
  std::vector<std::vector<std::vector<uint32_t>>> batches;
  for (uint32_t k = 0; k < kBatches; ++k) {
    batches.push_back(RandomRows(&rng, num_attrs, domain, 20));
  }
  // Cold reference at every batch boundary.
  std::unordered_map<uint64_t, std::vector<double>> expected;
  {
    auto prefix = rows;
    auto record = [&] {
      Relation cold = EmptyRelation(num_attrs, domain);
      ASSERT_TRUE(cold.AppendBatch(prefix).ok());
      std::vector<double> vals(8, 0.0);
      for (uint64_t mask = 1; mask < 8; ++mask) {
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

  JoinTree tree =
      JoinTree::Path({AttrSet{0, 1}, AttrSet{1, 2}}).value();
  StreamingOptions opts;
  opts.drift_threshold = 0.0;  // fixed tree
  StreamingLossMonitor monitor(&r, tree, opts);
  EntropyEngine& engine = monitor.session().EngineFor(r);

  struct Obs {
    uint64_t rows;
    uint32_t mask;
    double h;
  };
  constexpr int kReaders = 2;
  std::vector<std::vector<Obs>> observed(kReaders);
  std::atomic<bool> done{false};
  // Start barrier: every reader records an observation before the first
  // batch lands, so the check below never depends on the scheduler
  // running the readers while the ingest loop is still going.
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&engine, &observed, &done, &started, t] {
      Rng trng(9900 + static_cast<uint64_t>(t));
      auto& out = observed[static_cast<size_t>(t)];
      bool first = true;
      do {
        const EpochPin pin = engine.Pin();
        for (int q = 0; q < 2; ++q) {
          const uint32_t mask =
              1 + static_cast<uint32_t>(trng.UniformU64(7));
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
    Result<StreamingPoint> point = monitor.IngestBatch(batch);
    ASSERT_TRUE(point.ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  size_t checked = 0;
  for (const auto& per_thread : observed) {
    for (const Obs& o : per_thread) {
      auto it = expected.find(o.rows);
      ASSERT_NE(it, expected.end()) << "pin at non-boundary rows " << o.rows;
      EXPECT_NEAR(o.h, it->second[o.mask], 1e-9)
          << "rows " << o.rows << " mask " << o.mask;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_NEAR(monitor.trajectory().back().j, JMeasure(r, tree), 1e-9);
}

TEST(StreamingConcurrency, CatchUpRacesNeverFailAnIngest) {
  // Other threads catch the monitor's engine up while batches land: a
  // reader through Entropy (which runs a catch-up when it wins the
  // engine's try-lock) and an EpochMaintenance thread. Losing that race
  // is not a failure: every ingest must still succeed and report the
  // whole relation, with J and the exact rho of exactly that prefix.
  Rng rng(8950);
  const uint32_t num_attrs = 4;
  const uint32_t domain = 40;
  Relation r = EmptyRelation(num_attrs, domain);
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, num_attrs, domain, 20000)).ok());
  JoinTree tree =
      JoinTree::Path({AttrSet{0, 1}, AttrSet{1, 2}, AttrSet{2, 3}}).value();
  StreamingOptions opts;
  opts.drift_threshold = 0.0;  // fixed tree
  opts.compute_exact_loss = true;
  StreamingLossMonitor monitor(&r, tree, opts);
  EntropyEngine& engine = monitor.session().EngineFor(r);

  std::atomic<bool> done{false};
  std::thread reader([&engine, &done] {
    Rng trng(9950);
    while (!done.load(std::memory_order_acquire)) {
      engine.Entropy(
          AttrSet::FromMask(1 + static_cast<uint32_t>(trng.UniformU64(15))));
    }
  });
  {
    EpochMaintenance maintenance(&engine, std::chrono::microseconds(20));
    for (int k = 0; k < 60; ++k) {
      // Odd batches observe as soon as another thread has started the
      // new epoch's catch-up, so it is usually still in flight.
      Result<StreamingPoint> point = Status::Internal("unset");
      if (k % 2 == 0) {
        point = monitor.IngestBatch(RandomRows(&rng, num_attrs, domain, 500));
      } else {
        const uint64_t catchups = engine.Stats().epoch_catchups;
        EXPECT_TRUE(
            r.AppendBatch(RandomRows(&rng, num_attrs, domain, 500)).ok());
        maintenance.Poke();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (engine.Stats().epoch_catchups == catchups &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        point = monitor.Observe();
      }
      // No ASSERT while the reader runs: a failure must still join it.
      if (!point.ok()) {
        ADD_FAILURE() << "batch " << k << ": " << point.status().ToString();
        break;
      }
      EXPECT_EQ(point.value().rows, r.NumRows());
      EXPECT_EQ(point.value().batch_rows, 500u);
      if (k % 10 == 9) {
        EXPECT_NEAR(point.value().j, JMeasure(r, tree), 1e-9);
        EXPECT_EQ(point.value().rho.value_or(std::nan("")),
                  ComputeLoss(r, tree).value().rho);
      }
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
}

TEST(Streaming, CreateValidatesUserInputInsteadOfAborting) {
  Rng rng(4410);
  Relation r = EmptyRelation(3, 3);
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, 3, 3, 10)).ok());

  // Null relation: an error, not a CHECK abort.
  Result<StreamingLossMonitor> null_r = StreamingLossMonitor::Create(
      nullptr, testing_util::RandomPathJoinTree(&rng, 3));
  EXPECT_EQ(null_r.status().code(), StatusCode::kInvalidArgument);

  // Tree mentioning attributes the relation does not have.
  JoinTree wide = testing_util::RandomPathJoinTree(&rng, 5);
  Result<StreamingLossMonitor> bad_tree =
      StreamingLossMonitor::Create(&r, wide);
  EXPECT_EQ(bad_tree.status().code(), StatusCode::kInvalidArgument);

  // Valid input constructs a working monitor.
  Result<StreamingLossMonitor> good = StreamingLossMonitor::Create(
      &r, testing_util::RandomPathJoinTree(&rng, 3));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.value().IngestBatch(RandomRows(&rng, 3, 3, 5)).ok());

  // Null monitor into the CSV driver: error, not abort.
  std::istringstream in("a,b\n1,2\n");
  EXPECT_EQ(IngestCsvStream(nullptr, in, 2).code(),
            StatusCode::kInvalidArgument);
}

TEST(Streaming, ObserveReportsShrunkRelationAsFailedPrecondition) {
  Rng rng(4411);
  Relation r = EmptyRelation(3, 3);
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, 3, 3, 20)).ok());
  StreamingOptions opts;
  opts.drift_threshold = 0.0;
  StreamingLossMonitor monitor(
      &r, testing_util::RandomPathJoinTree(&rng, 3), opts);
  // Replace the monitored relation with a smaller one at the same address
  // — the append-only contract the monitor's caches rely on is broken, and
  // Observe must say so instead of aborting the process.
  Relation smaller = EmptyRelation(3, 3);
  ASSERT_TRUE(smaller.AppendBatch(RandomRows(&rng, 3, 3, 5)).ok());
  r = smaller;
  Result<StreamingPoint> point = monitor.Observe();
  EXPECT_EQ(point.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Streaming, PoisonBatchQuarantineKeepsTheStreamAlive) {
  Rng rng(4412);
  const uint32_t num_attrs = 3;
  Relation r = EmptyRelation(num_attrs, 3);
  ASSERT_TRUE(r.AppendBatch(RandomRows(&rng, num_attrs, 3, 20)).ok());

  // A string batch against a raw-code relation fails deterministically
  // (no dictionaries to intern into) — a poison batch without failpoints.
  const std::vector<std::vector<std::string>> poison = {{"a", "b", "c"}};

  // Default policy: the error surfaces and nothing is recorded.
  StreamingOptions fail_opts;
  fail_opts.drift_threshold = 0.0;
  StreamingLossMonitor strict(
      &r, testing_util::RandomPathJoinTree(&rng, num_attrs), fail_opts);
  EXPECT_FALSE(strict.IngestStringBatch(poison).ok());
  EXPECT_EQ(strict.NumQuarantinedBatches(), 0u);
  EXPECT_TRUE(strict.trajectory().empty());

  // Skip policy: the batch quarantines, the stream keeps going, and later
  // good batches land normally.
  StreamingOptions skip_opts;
  skip_opts.drift_threshold = 0.0;
  skip_opts.batch_fault_policy = BatchFaultPolicy::kRetryThenSkip;
  skip_opts.max_batch_retries = 1;
  StreamingLossMonitor lax(
      &r, testing_util::RandomPathJoinTree(&rng, num_attrs), skip_opts);
  const uint64_t rows_before = r.NumRows();
  Result<StreamingPoint> skipped = lax.IngestStringBatch(poison);
  ASSERT_TRUE(skipped.ok());  // no-op point, stream alive
  EXPECT_EQ(skipped.value().batch_rows, 0u);
  EXPECT_EQ(lax.NumQuarantinedBatches(), 1u);
  EXPECT_EQ(lax.LastQuarantineError().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.NumRows(), rows_before);  // relation untouched (rolled back)

  Result<StreamingPoint> good =
      lax.IngestBatch(RandomRows(&rng, num_attrs, 3, 5));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().batch_rows, 5u);
  EXPECT_EQ(lax.NumQuarantinedBatches(), 1u);  // unchanged
}

TEST(Streaming, PointJsonLineIsWellFormed) {
  StreamingPoint p;
  p.epoch = 3;
  p.rows = 100;
  p.batch_rows = 10;
  p.j = 0.25;
  p.rho_lower_bound = 0.5;
  p.remined = true;
  p.j_after_remine = 0.125;
  const std::string line = p.ToJsonLine();
  EXPECT_NE(line.find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(line.find("\"rows\":100"), std::string::npos);
  EXPECT_NE(line.find("\"remined\":true"), std::string::npos);
  EXPECT_NE(line.find("\"j_after_remine\":"), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

// --- Chunked CSV ----------------------------------------------------------

TEST(CsvBatches, ReadCsvBatchesChunksAndFlushesTail) {
  std::istringstream in("a,b\n1,2\n3,4\n5,6\n7,8\n9,10\n");
  std::vector<size_t> sizes;
  std::vector<std::string> seen_header;
  Status s = ReadCsvBatches(
      in, CsvOptions{}, 2,
      [&](const std::vector<std::string>& header,
          std::vector<std::vector<std::string>> batch) {
        seen_header = header;
        sizes.push_back(batch.size());
        return Status::OK();
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(seen_header, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 2, 1}));
}

TEST(CsvBatches, RaggedRowAndSinkErrorsPropagate) {
  {
    std::istringstream in("a,b\n1,2\n3\n");
    Status s = ReadCsvBatches(
        in, CsvOptions{}, 10,
        [](const std::vector<std::string>&,
           std::vector<std::vector<std::string>>) { return Status::OK(); });
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  {
    std::istringstream in("a,b\n1,2\n3,4\n5,6\n");
    int calls = 0;
    Status s = ReadCsvBatches(
        in, CsvOptions{}, 1,
        [&](const std::vector<std::string>&,
            std::vector<std::vector<std::string>>) {
          return ++calls == 2 ? Status::IoError("sink full") : Status::OK();
        });
    EXPECT_EQ(s.code(), StatusCode::kIoError);
    EXPECT_EQ(calls, 2);  // stopped at the failing chunk
  }
}

TEST(CsvBatches, AppendCsvBatchesFeedsRelationEpochs) {
  RelationBuilder b(Schema::MakeUniform({"x", "y"}, 0).value());
  b.AddStringRow({"a", "p"});
  Relation r = std::move(b).Build(/*dedupe=*/false);

  std::istringstream in("x,y\na,p\nb,q\nc,r\nd,s\n");
  CsvOptions opts;
  opts.dedupe = false;  // multiset append: keep the duplicate "a,p"
  ASSERT_TRUE(AppendCsvBatches(in, &r, opts, 2).ok());
  EXPECT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.epoch(), 2u);  // two non-empty chunks
  EXPECT_EQ(r.dict(0)->ValueOf(r.At(1, 0)), "a");  // interned consistently
  EXPECT_EQ(r.dict(1)->ValueOf(r.At(4, 1)), "s");

  // With dedupe (the CsvOptions default), a chunk of already-present rows
  // appends nothing and bumps no epoch.
  std::istringstream dup("x,y\na,p\nb,q\n");
  ASSERT_TRUE(AppendCsvBatches(dup, &r, CsvOptions{}, 2).ok());
  EXPECT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.epoch(), 2u);

  // Width mismatch is an error, not an abort.
  std::istringstream bad("x,y,z\n1,2,3\n");
  EXPECT_EQ(AppendCsvBatches(bad, &r, opts, 2).code(),
            StatusCode::kInvalidArgument);

  // A reordered header has matching width but would land values in the
  // wrong attributes; with a real header the names must line up.
  std::istringstream reordered("y,x\np,a\n");
  EXPECT_EQ(AppendCsvBatches(reordered, &r, CsvOptions{}, 2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(r.NumRows(), 5u);  // nothing appended
}

TEST(CsvBatches, IngestSummaryReportsCommitsAndResumeOffset) {
  RelationBuilder b(Schema::MakeUniform({"x", "y"}, 0).value());
  b.AddStringRow({"a", "p"});
  Relation r = std::move(b).Build(/*dedupe=*/false);

  CsvOptions opts;
  opts.dedupe = false;

  // Clean full-file ingest: the summary covers every batch and the resume
  // offset lands at end-of-file.
  const std::string text = "x,y\na,p\nb,q\nc,r\nd,s\ne,t\n";
  std::istringstream in(text);
  CsvIngestSummary summary;
  ASSERT_TRUE(AppendCsvBatches(in, &r, opts, 2, &summary).ok());
  EXPECT_EQ(summary.rows_read, 5u);
  EXPECT_EQ(summary.rows_appended, 5u);
  EXPECT_EQ(summary.batches_committed, 3u);  // 2 + 2 + tail of 1
  EXPECT_EQ(summary.resume_offset, static_cast<int64_t>(text.size()));

  // Mid-file failure (ragged row in the second batch): exactly the first
  // batch committed, and the resume offset points just past it.
  RelationBuilder b2(Schema::MakeUniform({"x", "y"}, 0).value());
  Relation r2 = std::move(b2).Build(/*dedupe=*/false);
  const std::string head = "x,y\na,p\nb,q\n";
  const std::string broken = head + "c\nd,s\n";
  std::istringstream in2(broken);
  CsvIngestSummary s2;
  EXPECT_EQ(AppendCsvBatches(in2, &r2, opts, 2, &s2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s2.rows_read, 2u);
  EXPECT_EQ(s2.rows_appended, 2u);
  EXPECT_EQ(s2.batches_committed, 1u);
  EXPECT_EQ(r2.NumRows(), 2u);  // the committed batch, nothing of the rest
  EXPECT_EQ(s2.resume_offset, static_cast<int64_t>(head.size()));

  // Resuming from the reported offset (headerless: the header was already
  // consumed in the first pass) ingests exactly the remaining good rows.
  const std::string fixed = head + "c,r\nd,s\n";
  std::istringstream in3(fixed);
  in3.seekg(s2.resume_offset);
  CsvOptions resume = opts;
  resume.has_header = false;
  CsvIngestSummary s3;
  ASSERT_TRUE(AppendCsvBatches(in3, &r2, resume, 2, &s3).ok());
  EXPECT_EQ(s3.rows_appended, 2u);
  EXPECT_EQ(r2.NumRows(), 4u);

  // With dedupe, rows_read counts what the committed batches carried while
  // rows_appended counts what landed.
  std::istringstream dup("x,y\na,p\nz,z\n");
  CsvIngestSummary s4;
  ASSERT_TRUE(AppendCsvBatches(dup, &r, CsvOptions{}, 10, &s4).ok());
  EXPECT_EQ(s4.rows_read, 2u);
  EXPECT_EQ(s4.rows_appended, 1u);  // "a,p" already present
}

TEST(Streaming, CsvIngestionDrivesTheMonitor) {
  // End to end: a CSV stream chunked straight into AppendStringBatch, one
  // trajectory point per chunk, values matching cold analysis.
  RelationBuilder b(Schema::MakeUniform({"x", "y", "z"}, 0).value());
  b.AddStringRow({"a", "a", "a"});
  b.AddStringRow({"b", "b", "b"});
  Relation r = std::move(b).Build(/*dedupe=*/false);
  JoinTree tree =
      JoinTree::Path({AttrSet{0, 1}, AttrSet{1, 2}}).value();
  StreamingOptions opts;
  opts.drift_threshold = 0.0;
  StreamingLossMonitor monitor(&r, tree, opts);

  std::istringstream in(
      "x,y,z\n"
      "a,a,b\nb,a,a\nc,c,c\n"
      "a,b,c\nb,c,a\n");
  ASSERT_TRUE(IngestCsvStream(&monitor, in, 3).ok());
  ASSERT_EQ(monitor.trajectory().size(), 2u);
  EXPECT_EQ(monitor.trajectory()[0].rows, 5u);
  EXPECT_EQ(monitor.trajectory()[1].rows, 7u);
  EXPECT_NEAR(monitor.trajectory().back().j, JMeasure(r, tree), 1e-9);
}

}  // namespace
}  // namespace ajd
