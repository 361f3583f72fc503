// Experiment PERF-MINER — end-to-end MineJoinTree, serial engine vs the
// threaded engine, on three relation shapes: 12 attributes with bags of 3
// and separators of 2 ("exhaustive"), and 18-20 attributes with wide bags
// and single-attribute separators ("hill_climb", "hill_climb_wide"). The
// names are those of the split-search paths the shapes once exercised,
// kept so the recorded trajectory continues.
//
// For every configuration the two modes must render byte-identical
// MinerReport::ToString output (scoring batches only warm the cache;
// selection runs after each batch in a fixed candidate order), so a clean
// exit is itself an equivalence check. One machine-readable JSON line per
// configuration, alongside perf_entropy_engine's, for trajectory tracking:
// the mined J and the serial run's engine queries and refinements sit
// beside the timings.
//
// `--smoke` shrinks every configuration to CI-friendly sizes; the point of
// that mode is keeping the JSON emitter and the equivalence guard alive,
// not producing meaningful timings on shared runners.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "discovery/miner.h"
#include "engine/analysis_session.h"
#include "random/random_relation.h"
#include "random/rng.h"

namespace {

using namespace ajd;

double NowMs() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

struct MinerBenchConfig {
  const char* name;
  uint32_t attrs;
  uint64_t rows;
  uint64_t domain;
  uint32_t max_separator_size;
  uint32_t max_bag_size;
  uint64_t seed;
};

struct ModeResult {
  double ms = 0.0;
  std::string rendering;
  uint32_t steps = 0;
  double j = 0.0;
  EngineStats stats;
};

ModeResult RunMode(const Relation& r, const MinerBenchConfig& config,
                   uint32_t num_threads) {
  MinerOptions options;
  options.max_separator_size = config.max_separator_size;
  options.max_bag_size = config.max_bag_size;
  EngineOptions engine;
  engine.num_threads = num_threads;
  ModeResult out;
  const double t0 = NowMs();
  // The session is part of the timed work, as in the convenience overload.
  AnalysisSession session(engine);
  MinerReport report = MineJoinTree(&session, r, options).value();
  out.ms = NowMs() - t0;
  out.rendering = report.ToString(r.schema());
  out.steps = static_cast<uint32_t>(report.steps.size());
  out.j = report.j;
  out.stats = session.TotalStats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::vector<MinerBenchConfig> configs;
  if (smoke) {
    configs.push_back({"exhaustive", 8, 400, 3, 2, 3, 20260730});
    configs.push_back({"hill_climb", 18, 100, 2, 1, 14, 20260731});
  } else {
    configs.push_back({"exhaustive", 12, 4000, 3, 2, 3, 20260730});
    configs.push_back({"hill_climb", 18, 1500, 4, 1, 8, 20260731});
    configs.push_back({"hill_climb_wide", 20, 800, 6, 1, 10, 20260732});
  }

  const uint32_t hw = std::thread::hardware_concurrency();
  bool all_identical = true;
  for (const MinerBenchConfig& config : configs) {
    Rng rng(config.seed);
    RandomRelationSpec spec;
    spec.domain_sizes.assign(config.attrs, config.domain);
    spec.num_tuples = config.rows;
    Relation r = SampleRandomRelation(spec, &rng).value();

    ModeResult serial = RunMode(r, config, /*num_threads=*/1);
    // All hardware threads; on a single-core host force a 2-worker pool so
    // the batched scoring path (and the equivalence guard on it) still
    // runs, even though it cannot be faster there.
    ModeResult threaded = RunMode(r, config, hw > 1 ? 0 : 2);
    const bool identical = serial.rendering == threaded.rendering;
    all_identical = all_identical && identical;

    std::printf(
        "{\"bench\":\"perf_miner\",\"config\":\"%s\",\"smoke\":%s,"
        "\"attrs\":%u,\"rows\":%llu,\"domain\":%llu,"
        "\"max_separator_size\":%u,\"max_bag_size\":%u,\"steps\":%u,"
        "\"j\":%.6f,\"queries\":%llu,\"refinements\":%llu,"
        "\"hardware_threads\":%u,\"serial_ms\":%.1f,\"threaded_ms\":%.1f,"
        "\"speedup\":%.2f,\"identical_output\":%s}\n",
        config.name, smoke ? "true" : "false", config.attrs,
        static_cast<unsigned long long>(r.NumRows()),
        static_cast<unsigned long long>(config.domain),
        config.max_separator_size, config.max_bag_size, serial.steps,
        serial.j, static_cast<unsigned long long>(serial.stats.queries),
        static_cast<unsigned long long>(serial.stats.refinements), hw,
        serial.ms, threaded.ms, serial.ms / threaded.ms,
        identical ? "true" : "false");
    if (!identical) {
      std::fprintf(stderr,
                   "MISMATCH config=%s\n--- serial ---\n%s--- threaded ---\n"
                   "%s",
                   config.name, serial.rendering.c_str(),
                   threaded.rendering.c_str());
    }
  }
  return all_identical ? 0 : 1;
}
