// Experiment PERF-STREAMING — incremental epoch catch-up vs cold rebuild
// on the streaming-monitoring workload (core/streaming.h).
//
// The schedule is append-heavy: a relation starts at half its final size
// and grows through K batches; after every batch the J-measure of one
// fixed join tree (mined once on the initial prefix) is re-evaluated.
//   incremental — ONE relation + ONE session: AppendBatch per batch, the
//                 engine catches up (columns extend, the tree's bag and
//                 separator partitions delta-extend), J re-reads the
//                 extended partitions. O(delta) per batch.
//   cold        — a fresh session per batch over the rows so far, J from
//                 an empty cache. O(N) per batch: the pre-epoch behavior
//                 of this library (any mutation meant full rebuild).
//   exact       — a second monitor like `incremental` with
//                 compute_exact_loss on: every batch also counts the exact
//                 rho from the tree's bag and separator partitions at the
//                 batch's pin (ComputeLossAt).
//   cold loss   — ComputeLoss through a fresh session per batch.
// The arms run in two passes over the same pre-drawn batches: first the J
// arms (incremental, cold), then the exact-rho arms (exact, cold loss),
// each pair interleaved per batch, so no arm is timed between batches of
// an arm from the other pass. Both J arms evaluate the same J terms; every
// per-batch value must agree to 1e-9, and every exact-arm rho must equal
// a cold ComputeLoss of the same prefix exactly, or the bench exits 1
// (the equivalence guards CI runs in --smoke). The JSON line reports ns
// per APPENDED row for each arm — the maintenance cost a streaming monitor
// actually pays — the exact arm's cost over the J-only arm's, and the cold
// ComputeLoss per batch; the loss-trajectory points stream as one JSON
// line each before it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/loss.h"
#include "core/streaming.h"
#include "discovery/miner.h"
#include "engine/analysis_session.h"
#include "info/entropy.h"
#include "info/j_measure.h"
#include "random/rng.h"
#include "relation/relation.h"

namespace {

using namespace ajd;

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Stream-shaped rows: a drifting hot window plus uniform background. Real
// append streams have temporal key locality (new events reference recent
// entities), so most of a batch lands in a narrow, advancing slice of each
// attribute's domain while a uniform residue keeps every old value alive.
// This is the structure delta extension exploits — the blocks of past
// windows stop receiving rows and are carried over wholesale — and the
// cold arm is indifferent to it (same rows, same O(N) rebuild).
std::vector<std::vector<uint32_t>> DrawRows(Rng* rng, uint32_t num_attrs,
                                            uint32_t domain, uint32_t count,
                                            uint32_t window_base) {
  std::vector<std::vector<uint32_t>> rows(count,
                                          std::vector<uint32_t>(num_attrs));
  constexpr uint32_t kWindow = 8;
  for (auto& row : rows) {
    for (uint32_t a = 0; a < num_attrs; ++a) {
      if (rng->NextDouble() < 0.99) {
        const double u = rng->NextDouble();
        const uint32_t offset = static_cast<uint32_t>(u * u * kWindow);
        row[a] = (window_base + offset) % domain;
      } else {
        row[a] = static_cast<uint32_t>(rng->UniformU64(domain));
      }
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

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const uint32_t num_attrs = 8;
  const uint32_t domain = smoke ? 16 : 64;
  const uint32_t initial_rows = smoke ? 2000 : 60000;
  const uint32_t batches = smoke ? 6 : 16;
  const uint32_t batch_rows = smoke ? 300 : 4000;
  // The hot window advances this much per batch (and per initial chunk).
  const uint32_t drift = 2;

  Rng rng(20260730);
  // The initial prefix is the same stream, already drifted through its
  // history — chunked so its value-recency structure matches the appends.
  std::vector<std::vector<uint32_t>> prefix;
  uint32_t window_base = 0;
  {
    const uint32_t chunk = batch_rows == 0 ? initial_rows : batch_rows;
    for (uint32_t done = 0; done < initial_rows; done += chunk) {
      auto part = DrawRows(&rng, num_attrs, domain,
                           std::min(chunk, initial_rows - done),
                           window_base);
      for (auto& row : part) prefix.push_back(std::move(row));
      window_base += drift;
    }
  }

  // Every batch is drawn up front, so both passes append the same rows.
  std::vector<std::vector<std::vector<uint32_t>>> stream;
  for (uint32_t k = 0; k <= batches; ++k) {  // batch 0 is the warm-up
    stream.push_back(
        DrawRows(&rng, num_attrs, domain, batch_rows, window_base));
    window_base += drift;
  }
  const auto& warm = stream[0];

  // Ingests the untimed warm-up batch. The first catch-up after mining
  // (or prewarming) pays a one-time generational sweep over the whole
  // working set (hundreds of partitions most of which it drops); the A/B
  // measures the steady-state maintenance cost a long-running monitor
  // actually lives at.
  auto warm_up = [&](StreamingLossMonitor* m) {
    Result<StreamingPoint> point = m->IngestBatch(warm);
    if (!point.ok()) {
      std::fprintf(stderr, "warm-up ingest failed: %s\n",
                   point.status().ToString().c_str());
      return false;
    }
    return true;
  };

  // Pass 1, the J arms. The monitored tree is mined once on the initial
  // prefix, then fixed, so both arms evaluate an identical term set every
  // batch.
  Relation inc = FromRows(num_attrs, prefix);
  StreamingOptions mopts;
  mopts.drift_threshold = 0.0;  // fixed tree: the A/B must not re-mine
  Result<StreamingLossMonitor> made =
      StreamingLossMonitor::WithMinedTree(&inc, mopts);
  if (!made.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  StreamingLossMonitor monitor = std::move(made).value();
  const JoinTree tree = monitor.tree();  // copy for the other arms
  if (!warm_up(&monitor)) return 1;
  // The rows so far, for the cold arms.
  std::vector<std::vector<uint32_t>> all_rows = prefix;
  all_rows.insert(all_rows.end(), warm.begin(), warm.end());

  double inc_ns = 0.0;
  double cold_ns = 0.0;
  uint64_t appended = 0;
  double max_diff = 0.0;
  for (uint32_t k = 0; k < batches; ++k) {
    const auto& batch = stream[k + 1];
    const double t0 = NowNs();
    Result<StreamingPoint> point = monitor.IngestBatch(batch);
    const double t1 = NowNs();
    if (!point.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   point.status().ToString().c_str());
      return 1;
    }
    inc_ns += t1 - t0;
    appended += batch.size();
    std::printf("%s\n", point.value().ToJsonLine().c_str());

    // Cold arm: rebuild everything from the rows so far — the only option
    // before relations had epochs.
    all_rows.insert(all_rows.end(), batch.begin(), batch.end());
    const double t2 = NowNs();
    Relation cold_r = FromRows(num_attrs, all_rows);
    AnalysisSession cold_session;
    EntropyCalculator cold_calc(&cold_session, &cold_r);
    const double cold_j = JMeasureDetailed(&cold_calc, tree).j;
    const double t3 = NowNs();
    cold_ns += t3 - t2;

    const double diff = std::fabs(cold_j - point.value().j);
    if (diff > max_diff) max_diff = diff;
    if (diff > 1e-9) {
      std::fprintf(stderr,
                   "VALUE MISMATCH at batch %u: incremental %.17g vs cold "
                   "%.17g\n",
                   k, point.value().j, cold_j);
      return 1;
    }
  }
  const EngineStats stats = monitor.session().TotalStats();

  // Pass 2, the exact-rho arms: a fresh monitor over the same prefix and
  // the same fixed tree, fed the same batches.
  Relation exact_r = FromRows(num_attrs, prefix);
  StreamingOptions eopts = mopts;
  eopts.compute_exact_loss = true;
  StreamingLossMonitor exact_monitor(&exact_r, tree, eopts);
  if (!warm_up(&exact_monitor)) return 1;
  all_rows = prefix;
  all_rows.insert(all_rows.end(), warm.begin(), warm.end());

  double exact_ns = 0.0;
  double cold_loss_ns = 0.0;
  for (uint32_t k = 0; k < batches; ++k) {
    const auto& batch = stream[k + 1];
    const double e0 = NowNs();
    Result<StreamingPoint> exact_point = exact_monitor.IngestBatch(batch);
    const double e1 = NowNs();
    if (!exact_point.ok() || !exact_point.value().rho.has_value()) {
      std::fprintf(stderr, "exact-arm ingest failed: %s\n",
                   exact_point.status().ToString().c_str());
      return 1;
    }
    exact_ns += e1 - e0;

    all_rows.insert(all_rows.end(), batch.begin(), batch.end());
    Relation cold_r = FromRows(num_attrs, all_rows);
    const double l0 = NowNs();
    Result<LossReport> cold_loss = ComputeLoss(cold_r, tree);
    const double l1 = NowNs();
    if (!cold_loss.ok()) {
      std::fprintf(stderr, "cold ComputeLoss failed: %s\n",
                   cold_loss.status().ToString().c_str());
      return 1;
    }
    cold_loss_ns += l1 - l0;
    if (*exact_point.value().rho != cold_loss.value().rho) {
      std::fprintf(stderr,
                   "RHO MISMATCH at batch %u: exact arm %.17g vs cold "
                   "ComputeLoss %.17g\n",
                   k, *exact_point.value().rho, cold_loss.value().rho);
      return 1;
    }
  }

  const double inc_ns_per_row = inc_ns / static_cast<double>(appended);
  const double cold_ns_per_row = cold_ns / static_cast<double>(appended);
  const double exact_ns_per_row = exact_ns / static_cast<double>(appended);
  const double cold_loss_ns_per_row =
      cold_loss_ns / static_cast<double>(appended);
  std::printf(
      "{\"bench\":\"perf_streaming\",\"smoke\":%s,\"rows_initial\":%u,"
      "\"batches\":%u,\"batch_rows\":%u,\"appended_rows\":%llu,"
      "\"incremental_ns_per_row\":%.1f,\"cold_ns_per_row\":%.1f,"
      "\"speedup_vs_cold\":%.2f,\"exact_ns_per_row\":%.1f,"
      "\"exact_over_j\":%.2f,\"cold_loss_ns_per_row\":%.1f,"
      "\"epoch_catchups\":%llu,"
      "\"partitions_extended\":%llu,\"partitions_replayed\":%llu,"
      "\"max_j_diff\":%.3g}\n",
      smoke ? "true" : "false", initial_rows, batches, batch_rows,
      static_cast<unsigned long long>(appended), inc_ns_per_row,
      cold_ns_per_row, cold_ns_per_row / inc_ns_per_row, exact_ns_per_row,
      exact_ns_per_row / inc_ns_per_row, cold_loss_ns_per_row,
      static_cast<unsigned long long>(stats.epoch_catchups),
      static_cast<unsigned long long>(stats.partitions_extended),
      static_cast<unsigned long long>(stats.partitions_replayed),
      max_diff);
  return 0;
}
