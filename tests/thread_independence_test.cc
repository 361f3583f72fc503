// Thread-count independence of every served value. An entropy is a pure
// function of (relation prefix, attribute set): every path evaluates it
// from the block-size histogram of the grouping (engine/block_histogram.h),
// so neither the cache-fill order a thread count produces nor the bases a
// batch happens to refine from can move a bit. Mining and analysis at 1, 2
// and 4 threads (4 three times over, so run-to-run scheduling varies too)
// must therefore agree EXACTLY — the rendered report byte for byte, J, and
// every entropy the engine serves — and agree with the legacy hash path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "discovery/miner.h"
#include "engine/analysis_session.h"
#include "engine/worker_pool.h"
#include "info/entropy.h"
#include "random/rng.h"
#include "test_util.h"

namespace ajd {
namespace {

struct RunResult {
  std::string report;
  double mined_j = 0.0;
  double analyzed_j = 0.0;
  double kl = 0.0;
  double sum_dfs_cmi = 0.0;
  std::vector<double> entropies;  // H(S) for every non-empty mask S
  size_t pool_threads = 0;        // workers the run's own pool spawned
};

RunResult MineAndAnalyze(const Relation& r, uint32_t threads) {
  EngineOptions options;
  options.num_threads = threads;
  options.worker_pool = std::make_shared<WorkerPool>();
  AnalysisSession session(options);
  const MinerReport mined = MineJoinTree(&session, r).value();
  const AjdAnalysis analysis = AnalyzeAjd(&session, r, mined.tree).value();
  RunResult out;
  out.report = mined.ToString(r.schema());
  out.mined_j = mined.j;
  out.analyzed_j = analysis.j;
  out.kl = analysis.kl;
  out.sum_dfs_cmi = analysis.sum_dfs_cmi;
  EntropyEngine& engine = session.EngineFor(r);
  // Everything the mine and the analysis cached is among these; the rest
  // are computed now, from whatever the threaded runs left cached.
  for (uint64_t mask = 1; mask < (uint64_t{1} << r.NumAttrs()); ++mask) {
    out.entropies.push_back(engine.Entropy(AttrSet::FromMask(mask)));
  }
  out.pool_threads = options.worker_pool->NumThreads();
  return out;
}

TEST(ThreadIndependence, MineAndAnalyzeBitwise) {
  Rng rng(20261017);
  const Relation r = testing_util::RandomTestRelation(&rng, 8, 4, 20000);
  const RunResult serial = MineAndAnalyze(r, 1);
  ASSERT_EQ(serial.entropies.size(), 255u);
  for (size_t i = 0; i < serial.entropies.size(); ++i) {
    ASSERT_EQ(serial.entropies[i], EntropyOf(r, AttrSet::FromMask(i + 1)))
        << "mask " << i + 1;
  }
  for (const uint32_t threads : {2u, 4u, 4u, 4u}) {
    const RunResult got = MineAndAnalyze(r, threads);
    ASSERT_GT(got.pool_threads, 0u) << "threads " << threads;
    ASSERT_EQ(got.report, serial.report) << "threads " << threads;
    ASSERT_EQ(got.mined_j, serial.mined_j) << "threads " << threads;
    ASSERT_EQ(got.analyzed_j, serial.analyzed_j) << "threads " << threads;
    ASSERT_EQ(got.kl, serial.kl) << "threads " << threads;
    ASSERT_EQ(got.sum_dfs_cmi, serial.sum_dfs_cmi) << "threads " << threads;
    for (size_t i = 0; i < serial.entropies.size(); ++i) {
      ASSERT_EQ(got.entropies[i], serial.entropies[i])
          << "threads " << threads << " mask " << i + 1;
    }
  }
}

}  // namespace
}  // namespace ajd
