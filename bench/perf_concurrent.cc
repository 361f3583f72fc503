// Experiment PERF-CONCURRENT — serve-while-ingest vs quiesce-everything.
//
// N reader threads hammer entropy queries while ONE appender lands batches
// on a schedule, A/B-ing the two concurrency disciplines this library has
// lived under:
//   snapshot — the current engine: readers pin the published (rows, epoch)
//              stamp (EntropyEngine::Pin / EntropyAt) and never block; the
//              appender runs EntropyEngine::CatchUp itself after every
//              batch, and readers keep serving the previous stamp until
//              that catch-up publishes the next one. Ingestion never
//              stalls a reader.
//   quiesce  — the pre-epoch-pinning discipline, reconstructed with a
//              std::shared_mutex: readers hold it shared around every
//              query, the appender takes it exclusive around AppendBatch +
//              CatchUp. Every append stalls every reader for the whole
//              append-and-catch-up window.
// Both arms ingest the identical batch schedule at the identical pace and
// serve the identical query mix. The JSON line reports per-op reader
// latency percentiles (lock wait included — that is the quiesce arm's
// cost) and aggregate reader throughput for each arm, plus their ratio.
// Each arm runs five times, the two interleaved (snapshot, quiesce,
// snapshot, ...) so neither arm always runs in a warmer process, and each
// reports its median run (latencies and throughput) with the min and max
// throughput: one run is bimodal.
// It is also the arm whose readers can hold a cached partition while
// catch-up extends it, which makes catch-up extend a clone.
//
// Correctness guard (the part CI enforces, --smoke): sampled reader
// results are re-derived on cold relations truncated to the reader's
// pinned row count; any |err| > 1e-9 exits 1. The >= 1.5x throughput
// target is only meaningful when the process may run on several CPUs
// (EffectiveCpuCount: affinity mask and cgroup quota) — on one CPU the
// arms time-slice and the ratio is noise (a note goes to stderr; the guard
// still runs).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "engine/entropy_engine.h"
#include "engine/worker_pool.h"
#include "info/entropy.h"
#include "random/rng.h"
#include "relation/attr_set.h"
#include "relation/relation.h"

namespace {

using namespace ajd;

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<std::vector<uint32_t>> DrawRows(Rng* rng, uint32_t num_attrs,
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

Relation FromRows(uint32_t num_attrs,
                  const std::vector<std::vector<uint32_t>>& rows) {
  std::vector<uint64_t> dims(num_attrs, 2);
  RelationBuilder b(Schema::MakeSynthetic(dims).value());
  for (const auto& row : rows) b.AddRow(row);
  return std::move(b).Build(/*dedupe=*/false);
}

/// One sampled reader result, re-checked cold after the run.
struct Sample {
  uint64_t rows;
  uint64_t mask;
  double h;
};

struct ArmResult {
  std::vector<double> latencies_ns;  // every reader op, all readers
  uint64_t ops = 0;
  double wall_ns = 0.0;
  std::vector<Sample> samples;
};

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(idx, sorted->size() - 1)];
}

struct ArmConfig {
  uint32_t num_attrs;
  uint32_t readers;
  uint32_t pace_us;  // appender sleep between batches
  uint32_t samples_per_reader;
};

// The snapshot arm: pinned readers, appender-side catch-up.
ArmResult RunSnapshotArm(
    const ArmConfig& cfg, const std::vector<std::vector<uint32_t>>& base,
    const std::vector<std::vector<std::vector<uint32_t>>>& batches) {
  Relation r = FromRows(cfg.num_attrs, base);
  EntropyEngine engine(&r);
  const uint64_t all_masks = (uint64_t{1} << cfg.num_attrs) - 1;
  engine.Entropy(AttrSet::FromMask(all_masks));  // warm

  ArmResult result;
  std::vector<std::vector<double>> lat(cfg.readers);
  std::vector<std::vector<Sample>> samples(cfg.readers);
  std::atomic<bool> done{false};
  const double t_start = NowNs();
  std::vector<std::thread> readers;
  readers.reserve(cfg.readers);
  for (uint32_t t = 0; t < cfg.readers; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      uint64_t ops = 0;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t mask = 1 + rng.UniformU64(all_masks - 1);
        const double t0 = NowNs();
        const EpochPin pin = engine.Pin();
        const double h = engine.EntropyAt(AttrSet::FromMask(mask), pin);
        lat[t].push_back(NowNs() - t0);
        if ((ops & 127) == 0 &&
            samples[t].size() < cfg.samples_per_reader) {
          samples[t].push_back({pin.rows, mask, h});
        }
        ++ops;
      }
    });
  }
  for (const auto& batch : batches) {
    if (!r.AppendBatch(batch).ok()) std::abort();
    engine.CatchUp();
    std::this_thread::sleep_for(std::chrono::microseconds(cfg.pace_us));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  result.wall_ns = NowNs() - t_start;
  for (auto& per_thread : lat) {
    result.ops += per_thread.size();
    result.latencies_ns.insert(result.latencies_ns.end(),
                               per_thread.begin(), per_thread.end());
  }
  for (auto& per_thread : samples) {
    result.samples.insert(result.samples.end(), per_thread.begin(),
                          per_thread.end());
  }
  return result;
}

// The quiesce baseline: a shared_mutex serializes ingestion against every
// reader — shared for queries, exclusive for append + catch-up.
ArmResult RunQuiesceArm(
    const ArmConfig& cfg, const std::vector<std::vector<uint32_t>>& base,
    const std::vector<std::vector<std::vector<uint32_t>>>& batches) {
  Relation r = FromRows(cfg.num_attrs, base);
  EntropyEngine engine(&r);
  const uint64_t all_masks = (uint64_t{1} << cfg.num_attrs) - 1;
  engine.Entropy(AttrSet::FromMask(all_masks));  // warm

  ArmResult result;
  std::vector<std::vector<double>> lat(cfg.readers);
  std::vector<std::vector<Sample>> samples(cfg.readers);
  std::shared_mutex quiesce_mu;
  std::atomic<bool> done{false};
  const double t_start = NowNs();
  std::vector<std::thread> readers;
  readers.reserve(cfg.readers);
  for (uint32_t t = 0; t < cfg.readers; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + t);
      uint64_t ops = 0;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t mask = 1 + rng.UniformU64(all_masks - 1);
        const double t0 = NowNs();  // lock wait IS the quiesce cost
        uint64_t rows;
        double h;
        {
          std::shared_lock<std::shared_mutex> lock(quiesce_mu);
          rows = r.NumRows();
          h = engine.Entropy(AttrSet::FromMask(mask));
        }
        lat[t].push_back(NowNs() - t0);
        if ((ops & 127) == 0 &&
            samples[t].size() < cfg.samples_per_reader) {
          samples[t].push_back({rows, mask, h});
        }
        ++ops;
      }
    });
  }
  for (const auto& batch : batches) {
    {
      std::unique_lock<std::shared_mutex> lock(quiesce_mu);
      if (!r.AppendBatch(batch).ok()) std::abort();
      engine.CatchUp();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(cfg.pace_us));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  result.wall_ns = NowNs() - t_start;
  for (auto& per_thread : lat) {
    result.ops += per_thread.size();
    result.latencies_ns.insert(result.latencies_ns.end(),
                               per_thread.begin(), per_thread.end());
  }
  for (auto& per_thread : samples) {
    result.samples.insert(result.samples.end(), per_thread.begin(),
                          per_thread.end());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  ArmConfig cfg;
  cfg.num_attrs = 6;
  cfg.readers = 4;
  cfg.pace_us = smoke ? 3000 : 25000;
  cfg.samples_per_reader = 4;
  const uint32_t domain = smoke ? 4 : 8;
  const uint32_t initial_rows = smoke ? 1500 : 40000;
  const uint32_t num_batches = smoke ? 4 : 12;
  const uint32_t batch_rows = smoke ? 250 : 3000;

  Rng rng(20260807);
  std::vector<std::vector<uint32_t>> base =
      DrawRows(&rng, cfg.num_attrs, domain, initial_rows);
  std::vector<std::vector<std::vector<uint32_t>>> batches;
  for (uint32_t k = 0; k < num_batches; ++k) {
    batches.push_back(DrawRows(&rng, cfg.num_attrs, domain, batch_rows));
  }

  const unsigned hc = std::thread::hardware_concurrency();
  const uint32_t cpus = EffectiveCpuCount();
  if (cpus <= 1) {
    std::fprintf(stderr,
                 "perf_concurrent: one usable CPU — the serve-while-ingest "
                 "throughput ratio needs several to mean anything; the "
                 "1e-9 correctness guard still runs.\n");
  }

  // One run's throughput is bimodal (it swings with how the host
  // schedules the appender against the readers), so each arm runs kRuns
  // times, alternating with the other, and reports its median run with
  // the min and max.
  constexpr int kRuns = 5;
  auto ops_per_sec = [](const ArmResult& a) {
    return static_cast<double>(a.ops) / (a.wall_ns * 1e-9);
  };
  std::vector<ArmResult> snapshot_runs;
  std::vector<ArmResult> quiesce_runs;
  for (int i = 0; i < kRuns; ++i) {
    snapshot_runs.push_back(RunSnapshotArm(cfg, base, batches));
    quiesce_runs.push_back(RunQuiesceArm(cfg, base, batches));
  }

  // Correctness guard: every sampled reader result of every run re-derived
  // cold at the row count the reader was pinned to (sampled — the tests
  // carry the exhaustive version of this oracle).
  std::vector<Sample> checks;
  for (const std::vector<ArmResult>* runs : {&snapshot_runs, &quiesce_runs}) {
    for (const ArmResult& run : *runs) {
      checks.insert(checks.end(), run.samples.begin(), run.samples.end());
    }
  }
  std::vector<std::vector<uint32_t>> all_rows = base;
  for (const auto& batch : batches) {
    all_rows.insert(all_rows.end(), batch.begin(), batch.end());
  }
  std::map<uint64_t, Relation> cold_at;
  double max_err = 0.0;
  for (const Sample& s : checks) {
    auto it = cold_at.find(s.rows);
    if (it == cold_at.end()) {
      if (s.rows > all_rows.size()) {
        std::fprintf(stderr, "pin beyond the ingested rows: %llu\n",
                     static_cast<unsigned long long>(s.rows));
        return 1;
      }
      it = cold_at
               .emplace(s.rows,
                        FromRows(cfg.num_attrs,
                                 std::vector<std::vector<uint32_t>>(
                                     all_rows.begin(),
                                     all_rows.begin() +
                                         static_cast<long>(s.rows))))
               .first;
    }
    const double want = EntropyOf(it->second, AttrSet::FromMask(s.mask));
    const double err = std::fabs(s.h - want);
    if (err > max_err) max_err = err;
    if (err > 1e-9) {
      std::fprintf(stderr,
                   "VALUE MISMATCH at rows %llu mask %llu: served %.17g "
                   "vs cold %.17g\n",
                   static_cast<unsigned long long>(s.rows),
                   static_cast<unsigned long long>(s.mask), s.h, want);
      return 1;
    }
  }

  // Sorts an arm's runs by throughput and returns the median run, its
  // latencies sorted for Percentile.
  auto median_run = [&](std::vector<ArmResult>* runs) -> ArmResult& {
    std::sort(runs->begin(), runs->end(),
              [&](const ArmResult& a, const ArmResult& b) {
                return ops_per_sec(a) < ops_per_sec(b);
              });
    ArmResult& median = (*runs)[kRuns / 2];
    std::sort(median.latencies_ns.begin(), median.latencies_ns.end());
    return median;
  };
  ArmResult& snapshot = median_run(&snapshot_runs);
  ArmResult& quiesce = median_run(&quiesce_runs);
  const double snap_ops_per_sec = ops_per_sec(snapshot);
  const double quiesce_ops_per_sec = ops_per_sec(quiesce);
  std::printf(
      "{\"bench\":\"perf_concurrent\",\"smoke\":%s,\"readers\":%u,"
      "\"initial_rows\":%u,\"batches\":%u,\"batch_rows\":%u,"
      "\"hardware_concurrency\":%u,\"effective_cpus\":%u,"
      "\"snapshot_runs\":%d,\"quiesce_runs\":%d,"
      "\"snapshot_reader_ops\":%llu,\"snapshot_ops_per_sec\":%.0f,"
      "\"snapshot_ops_per_sec_min\":%.0f,\"snapshot_ops_per_sec_max\":%.0f,"
      "\"snapshot_p50_us\":%.1f,\"snapshot_p95_us\":%.1f,"
      "\"snapshot_p99_us\":%.1f,"
      "\"quiesce_reader_ops\":%llu,\"quiesce_ops_per_sec\":%.0f,"
      "\"quiesce_ops_per_sec_min\":%.0f,\"quiesce_ops_per_sec_max\":%.0f,"
      "\"quiesce_p50_us\":%.1f,\"quiesce_p95_us\":%.1f,"
      "\"quiesce_p99_us\":%.1f,"
      "\"throughput_vs_quiesce\":%.2f,\"checks\":%zu,\"max_err\":%.3g}\n",
      smoke ? "true" : "false", cfg.readers, initial_rows, num_batches,
      batch_rows, hc, cpus, kRuns, kRuns,
      static_cast<unsigned long long>(snapshot.ops), snap_ops_per_sec,
      ops_per_sec(snapshot_runs.front()), ops_per_sec(snapshot_runs.back()),
      Percentile(&snapshot.latencies_ns, 0.5) * 1e-3,
      Percentile(&snapshot.latencies_ns, 0.95) * 1e-3,
      Percentile(&snapshot.latencies_ns, 0.99) * 1e-3,
      static_cast<unsigned long long>(quiesce.ops), quiesce_ops_per_sec,
      ops_per_sec(quiesce_runs.front()), ops_per_sec(quiesce_runs.back()),
      Percentile(&quiesce.latencies_ns, 0.5) * 1e-3,
      Percentile(&quiesce.latencies_ns, 0.95) * 1e-3,
      Percentile(&quiesce.latencies_ns, 0.99) * 1e-3,
      snap_ops_per_sec / quiesce_ops_per_sec, checks.size(), max_err);
  return 0;
}
