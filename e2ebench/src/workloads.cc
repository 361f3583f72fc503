#include "workloads.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>

#include "core/analysis.h"
#include "core/streaming.h"
#include "discovery/miner.h"
#include "engine/analysis_session.h"
#include "engine/cache_arbiter.h"
#include "generator.h"
#include "info/j_measure.h"
#include "io/csv.h"
#include "persist/persistent_store.h"

namespace e2ebench {

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"host.hw_threads", "count"},
      {"host.affinity_cpus", "count"},
      {"host.cpu_quota", "cpus"},
      {"host.spin_threads", "count"},
      {"host.spin_ratio", "ratio"},
      {"host.reference_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"io.csv_ingest_s", "s"},
      {"io.rows_read", "count"},
      {"io.rows_appended", "count"},
      {"io.self_s", "s"},
      {"relation.append_ms_p50", "ms"},
      {"relation.self_s", "s"},
      {"engine.catchup_ms_p50", "ms"},
      {"engine.catchup_ms_p95", "ms"},
      {"engine.catchups", "count"},
      {"engine.extend_ratio", "ratio"},
      {"engine.extended", "count"},
      {"engine.replayed", "count"},
      {"engine.queries", "count"},
      {"engine.hits", "count"},
      {"engine.hit_rate", "ratio"},
      {"engine.misses", "count"},
      {"engine.base_reuses", "count"},
      {"engine.base_reuse_rate", "ratio"},
      {"engine.refinements", "count"},
      {"engine.partition_builds", "count"},
      {"engine.fused_refinements", "count"},
      {"engine.evictions", "count"},
      {"engine.arbiter_evictions", "count"},
      {"engine.cache_mb", "MiB"},
      {"engine.warm_start_s", "s"},
      {"engine.self_s", "s"},
      {"discovery.mine_s", "s"},
      {"discovery.remine_s", "s"},
      {"discovery.remines", "count"},
      {"discovery.self_s", "s"},
      {"core.analyze_s", "s"},
      {"core.observe_ms_p50", "ms"},
      {"core.self_s", "s"},
      {"persist.open_s", "s"},
      {"persist.write_s", "s"},
      {"persist.reloads", "count"},
      {"persist.hits", "count"},
      {"persist.fallbacks", "count"},
      {"persist.puts", "count"},
      {"persist.store_mb", "MiB"},
      {"persist.store_bytes_per_row", "B/row"},
      {"persist.self_s", "s"},
  };
  return kMetrics;
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Rows per AppendCsvBatches chunk.
constexpr uint64_t kCsvBatchRows = 16384;
/// CSV ingests per fit run: setup_s is their median.
constexpr int kFitSetups = 7;

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

void Set(Metrics* m, const std::string& name, double value,
         const std::string& unit = "") {
  Metric& metric = (*m)[name];
  metric.value = value;
  if (!unit.empty()) metric.unit = unit;
}

/// Measured rounds: they continue until the phase has used cfg.seconds,
/// with a floor so every median has at least three samples (two in smoke
/// runs). Each round is preceded by reference samples (harness.h). A
/// traced run records spans on odd rounds only; the even rounds are the
/// untraced baseline that prices the tracing itself.
class Rounds {
 public:
  Rounds(const RunConfig& cfg, RunOutput* out)
      : cfg_(cfg), out_(out), start_(Now()), min_rounds_(cfg.smoke ? 2 : 3) {}

  bool Next(Tracer* tracer) {
    if (round_ >= min_rounds_ && Now() - start_ >= cfg_.seconds) return false;
    ++round_;
    out_->timeline.SampleReference();
    tracer->SetRun(round_, traced());
    return true;
  }
  bool traced() const { return cfg_.trace && round_ % 2 == 1; }
  void Record(double task_s) const {
    out_->timeline.Add(traced() ? Timeline::kTracedTask : Timeline::kTask,
                       task_s);
  }

 private:
  const RunConfig& cfg_;
  RunOutput* out_;
  double start_;
  uint32_t min_rounds_;
  uint32_t round_ = 0;
};

/// Theorem 3.2 (KL == J == chain-rule J) and Lemma 4.1 (e^J - 1 <= rho) on
/// every analysis the benchmark runs.
void CheckAnalysis(const ajd::AjdAnalysis& a, Tally* tally,
                   const std::string& where) {
  tally->Check(std::fabs(a.kl - a.j) <= 1e-9 &&
                   std::fabs(a.chain_rule_j - a.j) <= 1e-9,
               where + Fmt(": Theorem 3.2 kl=%.15g j=%.15g chain=%.15g",
                           a.kl, a.j, a.chain_rule_j));
  tally->Check(a.rho_lower_bound <= a.loss.rho * (1 + 1e-12) + 1e-12,
               where + Fmt(": Lemma 4.1 e^J-1=%.15g rho=%.15g",
                           a.rho_lower_bound, a.loss.rho));
}

/// CSV text into a fresh relation with set semantics (dedupe = true):
/// the paper's relations are sets, and multiset input currently aborts
/// AnalyzeAjd (see README.md).
ajd::Relation IngestCsv(const std::string& csv, const ajd::Schema& schema,
                        Tracer* tracer, Tally* tally,
                        ajd::CsvIngestSummary* summary) {
  ajd::Relation r = EmptyRelation(schema);
  std::istringstream in(csv);
  ajd::CsvOptions options;
  options.dedupe = true;
  ajd::Status status;
  {
    ScopedSpan span(tracer, "io.AppendCsvBatches");
    status = ajd::AppendCsvBatches(in, &r, options, kCsvBatchRows, summary);
  }
  tally->CheckStatus(status, "AppendCsvBatches");
  return r;
}

struct FitAnswer {
  bool ok = false;
  std::string tree;  ///< MinerReport::ToString
  double j = 0.0;
};

/// MineJoinTree then AnalyzeAjd through `session`. `suffix` tags the spans
/// of a set-up fit so they stay apart from the measured ones.
FitAnswer FitSchema(ajd::AnalysisSession* session, const ajd::Relation& r,
                    Tracer* tracer, Tally* tally, const std::string& suffix,
                    const std::string& where) {
  FitAnswer answer;
  ajd::Result<ajd::MinerReport> mined = [&] {
    ScopedSpan span(tracer, "discovery.MineJoinTree" + suffix);
    return ajd::MineJoinTree(session, r);
  }();
  if (!tally->CheckStatus(mined.status(), where + ": MineJoinTree")) {
    return answer;
  }
  ajd::Result<ajd::AjdAnalysis> analysis = [&] {
    ScopedSpan span(tracer, "core.AnalyzeAjd" + suffix);
    return ajd::AnalyzeAjd(session, r, mined.value().tree);
  }();
  if (!tally->CheckStatus(analysis.status(), where + ": AnalyzeAjd")) {
    return answer;
  }
  CheckAnalysis(analysis.value(), tally, where);
  answer.ok = true;
  answer.tree = mined.value().ToString(r.schema());
  answer.j = analysis.value().j;
  return answer;
}

ajd::EngineStats Minus(ajd::EngineStats a, const ajd::EngineStats& b) {
  a.queries -= b.queries;
  a.hits -= b.hits;
  a.base_reuses -= b.base_reuses;
  a.partition_builds -= b.partition_builds;
  a.refinements -= b.refinements;
  a.fused_refinements -= b.fused_refinements;
  a.evictions -= b.evictions;
  a.epoch_catchups -= b.epoch_catchups;
  a.partitions_extended -= b.partitions_extended;
  a.partitions_replayed -= b.partitions_replayed;
  a.persist_hits -= b.persist_hits;
  a.persist_reloads -= b.persist_reloads;
  a.persist_fallbacks -= b.persist_fallbacks;
  return a;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Engine, arbiter and disk-tier counters, each ratio next to its base.
void SetEngineCounters(const ajd::EngineStats& s, uint64_t arbiter_evictions,
                       size_t cache_bytes, Metrics* m) {
  const double misses = static_cast<double>(s.queries - s.hits);
  const double catchup_entries =
      static_cast<double>(s.partitions_extended + s.partitions_replayed);
  Set(m, "engine.queries", static_cast<double>(s.queries));
  Set(m, "engine.hits", static_cast<double>(s.hits));
  Set(m, "engine.hit_rate", s.HitRate());
  Set(m, "engine.misses", misses);
  Set(m, "engine.base_reuses", static_cast<double>(s.base_reuses));
  Set(m, "engine.base_reuse_rate",
      Ratio(static_cast<double>(s.base_reuses), misses));
  Set(m, "engine.refinements", static_cast<double>(s.refinements));
  Set(m, "engine.partition_builds", static_cast<double>(s.partition_builds));
  Set(m, "engine.fused_refinements",
      static_cast<double>(s.fused_refinements));
  Set(m, "engine.evictions", static_cast<double>(s.evictions));
  Set(m, "engine.arbiter_evictions", static_cast<double>(arbiter_evictions));
  Set(m, "engine.cache_mb", static_cast<double>(cache_bytes) / kMiB);
  Set(m, "engine.catchups", static_cast<double>(s.epoch_catchups));
  Set(m, "engine.extended", static_cast<double>(s.partitions_extended));
  Set(m, "engine.replayed", static_cast<double>(s.partitions_replayed));
  Set(m, "engine.extend_ratio",
      Ratio(static_cast<double>(s.partitions_extended), catchup_entries));
  Set(m, "persist.reloads", static_cast<double>(s.persist_reloads));
  Set(m, "persist.hits", static_cast<double>(s.persist_hits));
  Set(m, "persist.fallbacks", static_cast<double>(s.persist_fallbacks));
}

uint64_t ArbiterEvictions(const ajd::AnalysisSession& session) {
  const ajd::CacheArbiter* arbiter = session.cache_arbiter();
  return arbiter == nullptr ? 0 : arbiter->Stats().evictions;
}

/// The span-derived per-layer figures. Every workload names its spans
/// alike, so one pass serves all three; a layer a workload never calls
/// stays 0.
void SetSpanMetrics(const std::vector<Span>& spans, size_t traced_rounds,
                    Metrics* m) {
  auto durations = [&spans](const std::string& name) {
    return SpanDurations(spans, name);
  };
  std::vector<double> appends = durations("relation.AppendBatch");
  for (double d : durations("relation.AppendStringBatch")) {
    appends.push_back(d);
  }
  const std::vector<double> catchups = durations("engine.CatchUp");
  double remine_s = 0.0;
  for (double d : durations("discovery.Remine")) remine_s += d;

  Set(m, "io.csv_ingest_s",
      Median(SpanDurations(spans, "io.AppendCsvBatches", true)));
  Set(m, "relation.append_ms_p50", Median(appends) * 1e3);
  Set(m, "engine.catchup_ms_p50", Quantile(catchups, 0.5) * 1e3);
  Set(m, "engine.catchup_ms_p95", Quantile(catchups, 0.95) * 1e3);
  Set(m, "engine.warm_start_s", Median(durations("engine.EngineFor.warm")));
  Set(m, "discovery.mine_s", Median(durations("discovery.MineJoinTree")));
  Set(m, "discovery.remine_s",
      Ratio(remine_s, static_cast<double>(traced_rounds)));
  Set(m, "core.analyze_s", Median(durations("core.AnalyzeAjd")));
  Set(m, "core.observe_ms_p50", Median(durations("core.Observe")) * 1e3);
  Set(m, "persist.open_s", Median(durations("persist.Open")));
  Set(m, "persist.write_s", Median(durations("persist.PersistAll")));
}

// ---------------------------------------------------------------------------
// fit
// ---------------------------------------------------------------------------

struct FitShape {
  uint64_t rows;
  uint32_t attrs;
  uint32_t domain;
  double eps;
};

FitShape FitSize(bool smoke) {
  return smoke ? FitShape{3000, 6, 8, 0.3} : FitShape{200000, 10, 16, 0.3};
}

void RunFit(const RunConfig& cfg, Tracer* tracer, RunOutput* out) {
  const FitShape shape = FitSize(cfg.smoke);
  ajd::Rng rng(cfg.seed);
  const ajd::Schema schema = MakeSchema(shape.attrs, shape.domain);
  const MarkovSource source(BinaryTreeParents(shape.attrs), shape.domain,
                            shape.eps, &rng);
  const std::string csv = RenderCsv(schema, source.Draw(shape.rows, &rng));

  // Set-up: CSV ingest, repeated for a steady median; the last copy is
  // the relation every round fits.
  tracer->SetRun(0, cfg.trace);
  ajd::Relation r;
  ajd::CsvIngestSummary summary;
  for (int i = 0; i < kFitSetups; ++i) {
    out->timeline.SampleReference();
    const double start = Now();
    r = IngestCsv(csv, schema, tracer, &out->tally, &summary);
    out->timeline.Add(Timeline::kSetup, Now() - start);
  }

  std::string reference_tree;
  std::vector<double> fit_s;
  Rounds rounds(cfg, out);
  while (rounds.Next(tracer)) {
    ajd::AnalysisSession session;
    const double start = Now();
    const FitAnswer answer =
        FitSchema(&session, r, tracer, &out->tally, "", "fit");
    const double elapsed = Now() - start;
    if (!answer.ok) continue;
    rounds.Record(elapsed);
    fit_s.push_back(elapsed);
    if (reference_tree.empty()) {
      reference_tree = answer.tree;
    } else {
      out->tally.Check(answer.tree == reference_tree,
                       "fit: mined tree differs between rounds");
    }
    SetEngineCounters(session.TotalStats(), ArbiterEvictions(session),
                      session.CacheBytes(), &out->per_layer);
  }

  Set(&out->reported, "fit_s", Median(fit_s), "s");
  Set(&out->reported, "rows", static_cast<double>(r.NumRows()), "count");
  Set(&out->per_layer, "io.rows_read", static_cast<double>(summary.rows_read));
  Set(&out->per_layer, "io.rows_appended",
      static_cast<double>(summary.rows_appended));
}

// ---------------------------------------------------------------------------
// stream
// ---------------------------------------------------------------------------

struct StreamShape {
  uint32_t attrs;
  uint32_t domain;
  double eps;
  uint64_t prefix_rows;
  uint64_t batch_rows;
  uint32_t batches;
  uint32_t check_every;  ///< cold J recheck on every k-th batch
};

StreamShape StreamSize(bool smoke) {
  return smoke ? StreamShape{6, 8, 0.3, 2000, 100, 20, 5}
               : StreamShape{10, 16, 0.3, 60000, 1000, 200, 40};
}

void RunStream(const RunConfig& cfg, Tracer* tracer, RunOutput* out) {
  const StreamShape shape = StreamSize(cfg.smoke);
  ajd::Rng rng(cfg.seed);
  const ajd::Schema schema = MakeSchema(shape.attrs, shape.domain);
  // The planted structure shifts once, halfway: the first half of the
  // batches follows the binary tree, the second half a chain with fresh
  // functions, so the monitored J drifts up and one re-mine fires.
  const MarkovSource before(BinaryTreeParents(shape.attrs), shape.domain,
                            shape.eps, &rng);
  const MarkovSource after(ChainParents(shape.attrs), shape.domain,
                           shape.eps, &rng);
  const Rows prefix = before.Draw(shape.prefix_rows, &rng);
  std::vector<Rows> batches;
  for (uint32_t b = 0; b < shape.batches; ++b) {
    batches.push_back((b < shape.batches / 2 ? before : after)
                          .Draw(shape.batch_rows, &rng));
  }

  ajd::StreamingOptions options;
  // At most one re-mine per half of the stream: the shift re-mines once,
  // and the run-to-run work stays the same.
  options.min_batches_between_remines = shape.batches / 2;

  std::vector<double> batch_ms, rows_per_s;
  uint32_t remines = 0;
  Rounds rounds(cfg, out);
  while (rounds.Next(tracer)) {
    const double setup_start = Now();
    ajd::Relation r = EmptyRelation(schema);
    ajd::Status status;
    {
      ScopedSpan span(tracer, "relation.AppendBatch.prefix");
      status = r.AppendBatch(prefix, /*dedupe=*/true);
    }
    if (!out->tally.CheckStatus(status, "stream: prefix AppendBatch")) continue;
    ajd::Result<ajd::StreamingLossMonitor> created = [&] {
      ScopedSpan span(tracer, "discovery.WithMinedTree");
      return ajd::StreamingLossMonitor::WithMinedTree(&r, options);
    }();
    if (!out->tally.CheckStatus(created.status(), "stream: WithMinedTree")) {
      continue;
    }
    ajd::StreamingLossMonitor& monitor = created.value();
    out->timeline.Add(Timeline::kSetup, Now() - setup_start);

    const ajd::EngineStats stats_before = monitor.session().TotalStats();
    const uint64_t evictions_before = ArbiterEvictions(monitor.session());
    const uint64_t rows_before = r.NumRows();
    double wall = 0.0;
    for (uint32_t b = 0; b < shape.batches; ++b) {
      const double start = Now();
      {
        ScopedSpan span(tracer, "relation.AppendBatch");
        status = r.AppendBatch(batches[b], /*dedupe=*/true);
      }
      if (!out->tally.CheckStatus(status, "stream: AppendBatch")) break;
      {
        ScopedSpan span(tracer, "engine.CatchUp");
        monitor.session().EngineFor(r).CatchUp();
      }
      std::optional<ajd::StreamingPoint> point;
      {
        ScopedSpan span(tracer, "core.Observe");
        ajd::Result<ajd::StreamingPoint> observed = monitor.Observe();
        if (observed.ok()) point = observed.value();
        if (point && point->remined) {
          tracer->Rename(span.id(), "discovery.Remine");
        }
        out->tally.CheckStatus(observed.status(), "stream: Observe");
      }
      const double elapsed = Now() - start;
      wall += elapsed;
      batch_ms.push_back(elapsed * 1e3);
      if (!point) break;
      // Untimed cold recheck of the recorded J (and its Lemma 4.1 bound)
      // through the legacy hash path, on a sample of batches plus the
      // re-mine.
      if (point->remined || b % shape.check_every == shape.check_every - 1) {
        const double expected =
            point->remined ? point->j_after_remine.value_or(-1.0) : point->j;
        const double cold = ajd::JMeasure(r, monitor.tree());
        out->tally.Check(std::fabs(cold - expected) <= 1e-9,
                         Fmt("stream: batch %.0f J=%.15g, cold J=%.15g", b,
                             expected, cold));
        out->tally.Check(
            std::fabs(point->rho_lower_bound - std::expm1(point->j)) <=
                1e-9 * (1 + point->rho_lower_bound),
            Fmt("stream: batch %.0f rho_lower_bound=%.15g for J=%.15g", b,
                point->rho_lower_bound, point->j));
      }
    }
    rounds.Record(wall);
    rows_per_s.push_back(static_cast<double>(r.NumRows() - rows_before) /
                         wall);
    remines = monitor.NumRemines();
    SetEngineCounters(
        Minus(monitor.session().TotalStats(), stats_before),
        ArbiterEvictions(monitor.session()) - evictions_before,
        monitor.session().CacheBytes(), &out->per_layer);
  }

  Set(&out->reported, "batch_ms_p50", Quantile(batch_ms, 0.5), "ms");
  Set(&out->reported, "batch_ms_p95", Quantile(batch_ms, 0.95), "ms");
  Set(&out->reported, "batch_ms_p99", Quantile(batch_ms, 0.99), "ms");
  Set(&out->reported, "batches", static_cast<double>(batch_ms.size()),
      "count");
  Set(&out->reported, "stream_rows_per_s", Median(rows_per_s), "rows/s");
  Set(&out->reported, "remines", remines, "count");
  Set(&out->per_layer, "discovery.remines", remines);
}

// ---------------------------------------------------------------------------
// restart
// ---------------------------------------------------------------------------

/// The disk tier's flush policy, fixed for every run: no fsync. The
/// benchmark prices the tier's own write and read paths; an fsync per blob
/// would price the host's disk instead, which varies far more between
/// machines and runs than the code under test.
constexpr bool kFsyncWrites = false;
/// The appended delta, as a share of the fitted rows.
constexpr double kDeltaShare = 0.02;

/// The fit workload's source at 120k rows (~95k distinct): every partition
/// the fit builds fits the cache budget, so the first process persists the
/// whole cache and the restart is served by the disk tier rather than by
/// recomputing evicted terms.
FitShape RestartSize(bool smoke) {
  FitShape shape = FitSize(smoke);
  if (!smoke) shape.rows = 120000;
  return shape;
}

void RunRestart(const RunConfig& cfg, Tracer* tracer, RunOutput* out) {
  const FitShape shape = RestartSize(cfg.smoke);
  ajd::Rng rng(cfg.seed);
  const ajd::Schema schema = MakeSchema(shape.attrs, shape.domain);
  const MarkovSource source(BinaryTreeParents(shape.attrs), shape.domain,
                            shape.eps, &rng);
  const std::string csv = RenderCsv(schema, source.Draw(shape.rows, &rng));
  const auto delta = ToStrings(source.Draw(
      static_cast<uint64_t>(kDeltaShare * static_cast<double>(shape.rows)),
      &rng));
  const std::string dir =
      cfg.work_dir + "/store-" + std::to_string(::getpid());
  ajd::PersistOptions persist_options;
  persist_options.fsync_writes = kFsyncWrites;

  // The answer a cold process gives on the same rows: the reference every
  // warm re-fit must reproduce.
  tracer->SetRun(0, false);
  FitAnswer reference;
  uint64_t reference_rows = 0;
  {
    ajd::CsvIngestSummary summary;
    ajd::Relation r = IngestCsv(csv, schema, tracer, &out->tally, &summary);
    out->tally.CheckStatus(r.AppendStringBatch(delta, /*dedupe=*/true),
                           "restart: cold delta append");
    ajd::AnalysisSession session;
    reference = FitSchema(&session, r, tracer, &out->tally, "", "restart cold");
    reference_rows = r.NumRows();
  }
  if (!reference.ok) return;

  std::vector<double> persist_s, restart_s;
  ajd::CsvIngestSummary summary;
  Rounds rounds(cfg, out);
  while (rounds.Next(tracer)) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    // First process: ingest and fit with the disk tier attached, persist.
    const double setup_start = Now();
    ajd::Relation first = IngestCsv(csv, schema, tracer, &out->tally, &summary);
    ajd::Result<std::shared_ptr<ajd::PersistentCacheStore>> opened = [&] {
      ScopedSpan span(tracer, "persist.Open.first");
      return ajd::PersistentCacheStore::Open(dir, persist_options);
    }();
    if (!out->tally.CheckStatus(opened.status(), "restart: first Open")) {
      continue;
    }
    double persist_elapsed = 0.0;
    ajd::PersistStats persist_stats;
    {
      ajd::SessionOptions options;
      options.engine.persist_store = std::move(opened).value();
      ajd::AnalysisSession session(options);
      if (!FitSchema(&session, first, tracer, &out->tally, ".first",
                     "restart first process")
               .ok) {
        continue;
      }
      out->timeline.Add(Timeline::kSetup, Now() - setup_start);
      const double start = Now();
      ajd::Status status;
      {
        ScopedSpan span(tracer, "persist.PersistAll");
        status = session.PersistAll();
      }
      persist_elapsed = Now() - start;
      out->tally.CheckStatus(status, "restart: PersistAll");
      persist_stats = options.engine.persist_store->Stats();
    }  // the first process's session and store close here
    const double store_bytes = static_cast<double>(DirectoryBytes(dir));
    const double persisted_rows = static_cast<double>(first.NumRows());
    // The restarted process's relation: the same persisted rows under a
    // fresh identity.
    ajd::Relation r(first);
    first = ajd::Relation();

    // Restart: open the store, reattach at the persisted rows (warm start),
    // append the delta, re-fit.
    const double start = Now();
    ajd::Result<std::shared_ptr<ajd::PersistentCacheStore>> reopened = [&] {
      ScopedSpan span(tracer, "persist.Open");
      return ajd::PersistentCacheStore::Open(dir, persist_options);
    }();
    if (!out->tally.CheckStatus(reopened.status(), "restart: Open")) continue;
    ajd::SessionOptions options;
    options.engine.persist_store = reopened.value();
    ajd::AnalysisSession session(options);
    {
      ScopedSpan span(tracer, "engine.EngineFor.warm");
      session.EngineFor(r);
    }
    ajd::Status status;
    {
      ScopedSpan span(tracer, "relation.AppendStringBatch");
      status = r.AppendStringBatch(delta, /*dedupe=*/true);
    }
    if (!out->tally.CheckStatus(status, "restart: delta append")) continue;
    {
      // Explicit, so the delta extension is timed as the engine's rather
      // than folded into the miner's first query.
      ScopedSpan span(tracer, "engine.CatchUp");
      session.EngineFor(r).CatchUp();
    }
    const FitAnswer answer =
        FitSchema(&session, r, tracer, &out->tally, "", "restart");
    const double restart_elapsed = Now() - start;
    if (!answer.ok) continue;

    const ajd::EngineStats stats = session.TotalStats();
    out->tally.Check(answer.tree == reference.tree,
                     "restart: warm re-fit tree differs from a cold re-fit:\n" +
                         answer.tree + "\nvs cold\n" + reference.tree);
    out->tally.Check(std::fabs(answer.j - reference.j) <= 1e-9,
                     Fmt("restart: warm J=%.15g, cold J=%.15g", answer.j,
                         reference.j));
    out->tally.Check(r.NumRows() == reference_rows,
                     "restart: row count differs from the cold re-fit");
    out->tally.Check(stats.persist_fallbacks == 0,
                     Fmt("restart: %.0f persist fallbacks",
                         static_cast<double>(stats.persist_fallbacks)));

    rounds.Record(persist_elapsed + restart_elapsed);
    persist_s.push_back(persist_elapsed);
    restart_s.push_back(restart_elapsed);
    Metrics& m = out->per_layer;
    SetEngineCounters(stats, ArbiterEvictions(session), session.CacheBytes(),
                      &m);
    Set(&m, "persist.puts", static_cast<double>(persist_stats.puts));
    Set(&m, "persist.store_mb", store_bytes / kMiB);
    Set(&m, "persist.store_bytes_per_row", store_bytes / persisted_rows);
    Set(&out->reported, "store_bytes_per_row", store_bytes / persisted_rows,
        "B/row");
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  Set(&out->reported, "persist_s", Median(persist_s), "s");
  Set(&out->reported, "restart_s", Median(restart_s), "s");
  Set(&out->per_layer, "io.rows_read", static_cast<double>(summary.rows_read));
  Set(&out->per_layer, "io.rows_appended",
      static_cast<double>(summary.rows_appended));
}

}  // namespace

bool RunWorkload(const RunConfig& cfg, Tracer* tracer, RunOutput* out) {
  if (cfg.workload == "fit") {
    RunFit(cfg, tracer, out);
  } else if (cfg.workload == "stream") {
    RunStream(cfg, tracer, out);
  } else if (cfg.workload == "restart") {
    RunRestart(cfg, tracer, out);
  } else {
    return false;
  }
  SetSpanMetrics(tracer->spans(),
                 out->timeline.Values(Timeline::kTracedTask).size(),
                 &out->per_layer);
  return true;
}

}  // namespace e2ebench
