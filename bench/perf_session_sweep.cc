// Experiment PERF-SESSION-SWEEP — many-relation sweep through one sharded
// AnalysisSession: does ONE global cache budget (engine/cache_arbiter.h)
// beat fixed per-engine splits of the same total bytes?
//
// The workload replays a Kenig/Suciu-style mining sweep: R relations of
// uneven sizes, visited in zipf-skewed bursts (hot relations get long
// mining-shaped random walks over the subset lattice, cold ones short
// ones). Four contenders answer the same deterministic query schedule:
//   baseline   — per-engine budgets, effectively unbounded (the value
//                reference and the working-set probe);
//   global     — one shared budget B = 2x the largest single-relation
//                working set, arbitrated globally-LRU across relations;
//   split-even — the same B split evenly: each engine gets B / R on its
//                own single-engine arbiter;
//   split-prop — B split proportionally to each relation's standalone
//                working set (the best fixed split one could pick a
//                priori), again one arbiter per engine.
// The gate: the global budget's base hit rate (fraction of misses that
// refined a cached partition instead of rebuilding from raw columns) must
// be >= both fixed splits', and every entropy must match the baseline to
// 1e-9 (the JSON reports whether they are in fact bit-equal). Exits 1
// otherwise. The schedule, and therefore every counter, is deterministic.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "engine/analysis_session.h"
#include "engine/cache_arbiter.h"
#include "engine/entropy_engine.h"
#include "random/random_relation.h"
#include "random/rng.h"
#include "relation/attr_set.h"

namespace {

using namespace ajd;

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Query {
  uint32_t relation;
  AttrSet attrs;
};

// Zipf-skewed burst schedule: hot relations are revisited often and walk
// long grow-mostly paths (partition reuse is what distinguishes budgets;
// the entropy VALUE cache never evicts, so repeated masks are hits under
// every contender and cancel out).
std::vector<Query> BuildSchedule(const std::vector<Relation>& relations,
                                 uint32_t bursts, uint32_t burst_len,
                                 Rng* rng) {
  const size_t r_count = relations.size();
  std::vector<double> cum;
  double total = 0.0;
  for (size_t i = 0; i < r_count; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cum.push_back(total);
  }
  std::vector<Query> schedule;
  for (uint32_t b = 0; b < bursts; ++b) {
    const double u = rng->NextDouble() * total;
    uint32_t r = 0;
    while (r + 1 < r_count && cum[r] < u) ++r;
    const uint32_t num_attrs = relations[r].NumAttrs();
    // Hot relations get full-length bursts; the coldest get stubs.
    const uint32_t len = std::max<uint32_t>(4, burst_len / (1 + r / 2));
    AttrSet walk;
    for (uint32_t q = 0; q < len; ++q) {
      if (walk.Count() + 2 >= num_attrs || walk.Empty()) {
        walk = AttrSet();  // restart from a fresh small seed
        walk.Add(static_cast<uint32_t>(rng->UniformU64(num_attrs)));
      } else {
        uint32_t a;
        do {
          a = static_cast<uint32_t>(rng->UniformU64(num_attrs));
        } while (walk.Contains(a));
        walk.Add(a);
      }
      schedule.push_back({r, walk});
    }
  }
  return schedule;
}

struct SweepResult {
  std::vector<double> values;
  double ns_per_op = 0.0;
  double entropy_hit_rate = 0.0;
  double base_hit_rate = 0.0;  // base_reuses / (queries - hits)
  uint64_t evictions = 0;
  std::vector<size_t> engine_bytes;  // footprint at end, per relation
};

// Replays the schedule against one engine per relation; `budgets[i]` is
// the budget of relation i's own single-engine arbiter, or, when `arbiter`
// is set, every engine charges that shared arbiter instead.
SweepResult RunSweep(const std::vector<Relation>& relations,
                     const std::vector<Query>& schedule,
                     const std::vector<size_t>& budgets,
                     std::shared_ptr<CacheArbiter> arbiter) {
  std::vector<std::unique_ptr<EntropyEngine>> engines;
  for (size_t i = 0; i < relations.size(); ++i) {
    EngineOptions opts;
    opts.cache_budget_bytes = budgets[i];
    opts.cache_arbiter = arbiter;
    engines.push_back(
        std::make_unique<EntropyEngine>(&relations[i], opts));
  }
  SweepResult out;
  out.values.reserve(schedule.size());
  const double t0 = NowNs();
  for (const Query& q : schedule) {
    out.values.push_back(engines[q.relation]->Entropy(q.attrs));
  }
  out.ns_per_op = (NowNs() - t0) / static_cast<double>(schedule.size());
  EngineStats total;
  for (auto& e : engines) {
    EngineStats s = e->Stats();
    total.queries += s.queries;
    total.hits += s.hits;
    total.base_reuses += s.base_reuses;
    total.evictions += s.evictions;
    out.engine_bytes.push_back(e->PartitionBytes());
  }
  out.entropy_hit_rate = total.HitRate();
  const uint64_t misses = total.queries - total.hits;
  out.base_hit_rate =
      misses == 0 ? 0.0
                  : static_cast<double>(total.base_reuses) /
                        static_cast<double>(misses);
  out.evictions = total.evictions;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const uint32_t kRelations = smoke ? 6 : 16;
  const uint32_t kBursts = smoke ? 60 : 400;
  const uint32_t kBurstLen = smoke ? 12 : 40;

  Rng rng(20260731);
  std::vector<Relation> relations;
  for (uint32_t i = 0; i < kRelations; ++i) {
    // Uneven shapes: the hottest relations (low index) are also the
    // biggest, so fixed splits must choose between starving them or
    // overfeeding the cold tail.
    RandomRelationSpec spec;
    const uint32_t attrs =
        smoke ? 6 + (i % 3) : 8 + (i % 5);
    const uint64_t rows = smoke ? 400 - 40 * (i % 4)
                                : 4000 - 200 * static_cast<uint64_t>(i);
    spec.domain_sizes.assign(attrs, 3 + (i % 2));
    spec.num_tuples = rows;
    relations.push_back(SampleRandomRelation(spec, &rng).value());
  }
  const std::vector<Query> schedule =
      BuildSchedule(relations, kBursts, kBurstLen, &rng);

  // Baseline: unbounded per-engine budgets — the value reference, and the
  // probe that measures each relation's standalone working set.
  std::vector<size_t> unbounded(kRelations, ~size_t{0});
  SweepResult baseline = RunSweep(relations, schedule, unbounded, nullptr);
  size_t max_ws = 0, total_ws = 0;
  for (size_t b : baseline.engine_bytes) {
    max_ws = std::max(max_ws, b);
    total_ws += b;
  }
  const size_t kBudget = 2 * max_ws;

  // Global: one arbiter holding kBudget for every engine.
  ArbiterOptions arb_opts;
  arb_opts.budget_bytes = kBudget;
  arb_opts.engine_floor_bytes = kBudget / (4 * kRelations);
  SweepResult global =
      RunSweep(relations, schedule, unbounded,
               std::make_shared<CacheArbiter>(arb_opts));

  // Fixed splits of the same total bytes: even, and proportional to the
  // standalone working sets.
  std::vector<size_t> even(kRelations, kBudget / kRelations);
  SweepResult split_even = RunSweep(relations, schedule, even, nullptr);
  std::vector<size_t> prop;
  for (size_t b : baseline.engine_bytes) {
    prop.push_back(static_cast<size_t>(
        static_cast<double>(kBudget) * static_cast<double>(b) /
        static_cast<double>(total_ws)));
  }
  SweepResult split_prop = RunSweep(relations, schedule, prop, nullptr);

  // Equivalence gate: every contender must reproduce the baseline values.
  double max_diff_global = 0.0, max_diff_splits = 0.0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    max_diff_global = std::max(
        max_diff_global, std::abs(global.values[i] - baseline.values[i]));
    max_diff_splits = std::max(
        {max_diff_splits,
         std::abs(split_even.values[i] - baseline.values[i]),
         std::abs(split_prop.values[i] - baseline.values[i])});
  }
  if (max_diff_global > 1e-9 || max_diff_splits > 1e-9) {
    std::fprintf(stderr,
                 "MISMATCH vs baseline: global=%.3e splits=%.3e\n",
                 max_diff_global, max_diff_splits);
    return 1;
  }
  // The point of the global budget: at the same total bytes, it must reuse
  // cached bases at least as often as the best fixed split.
  const double best_split_rate =
      std::max(split_even.base_hit_rate, split_prop.base_hit_rate);
  if (global.base_hit_rate + 1e-12 < best_split_rate) {
    std::fprintf(stderr,
                 "GLOBAL BUDGET LOST: global=%.4f even=%.4f prop=%.4f\n",
                 global.base_hit_rate, split_even.base_hit_rate,
                 split_prop.base_hit_rate);
    return 1;
  }

  std::printf(
      "{\"bench\":\"perf_session_sweep\",\"smoke\":%s,"
      "\"relations\":%u,\"queries\":%zu,"
      "\"budget_bytes\":%zu,\"max_working_set_bytes\":%zu,"
      "\"total_working_set_bytes\":%zu,"
      "\"ns_per_op_baseline\":%.1f,\"ns_per_op_global\":%.1f,"
      "\"ns_per_op_split_even\":%.1f,\"ns_per_op_split_prop\":%.1f,"
      "\"base_hit_rate_global\":%.4f,\"base_hit_rate_split_even\":%.4f,"
      "\"base_hit_rate_split_prop\":%.4f,\"base_hit_rate_baseline\":%.4f,"
      "\"entropy_hit_rate\":%.4f,"
      "\"evictions_global\":%llu,\"evictions_split_even\":%llu,"
      "\"max_abs_diff_vs_baseline\":%.3e,\"bit_equal_to_baseline\":%s}\n",
      smoke ? "true" : "false", kRelations, schedule.size(), kBudget,
      max_ws, total_ws, baseline.ns_per_op, global.ns_per_op,
      split_even.ns_per_op, split_prop.ns_per_op, global.base_hit_rate,
      split_even.base_hit_rate, split_prop.base_hit_rate,
      baseline.base_hit_rate, global.entropy_hit_rate,
      static_cast<unsigned long long>(global.evictions),
      static_cast<unsigned long long>(split_even.evictions),
      max_diff_global, max_diff_global == 0.0 ? "true" : "false");
  return 0;
}
