// Experiment PERF-PERSIST — A/B of a warm restart against a cold start on
// the miner's candidate-split workload, through the crash-safe disk tier
// (persist/persistent_store.h).
//
// The scenario is the motivation's "repeated mining sweeps over a
// slowly-growing relation", cut by a process restart: a seed process
// serves the split workload over the first N0 rows with a persistent
// store attached and persists its cache (PersistCache) at shutdown. A NEW
// process then (a) attaches to the relation at N0, (b) serves the full
// sweep, (c) ingests a delta of appended rows, and (d) serves the sweep
// again at N0+delta. The warm arm's engine constructor reloads the
// persisted entries — entropy values serve sweep (b) as plain cache hits,
// and the reloaded partitions become the in-memory cache that the epoch
// catch-up at (c) delta-extends to N0+delta through the standard
// bit-identical extension machinery, which is what prices sweep (d). The
// cold arm runs the identical (a)-(d) timeline with no disk tier: sweep
// (b) pays the full cold build. Both arms pay (c)+(d) through the same
// catch-up code, so the A/B isolates exactly what the disk tier saves.
//
// The relation is a slowly-growing log: half the attributes are
// low-cardinality dimensions, half DRIFT with the row position (bucketed
// views of one clock — month/week/day of a timestamp, rolling entity
// ids), so partition blocks are fat and appends only touch the trailing
// ones — the temporal-locality regime the delta-extension machinery is
// built for (engine/partition.h), and the natural shape of a growing
// fact table.
//
// Both arms are timed END TO END (engine construction through both
// sweeps). The equivalence guard is absolute 1e-9 per term on BOTH
// sweeps: a persisted cache may make the engine slower, never wronger.
//
// Emits one machine-readable JSON line so future PRs can track the
// trajectory.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "engine/entropy_engine.h"
#include "persist/persistent_store.h"
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

// The attr-set terms of the miner's split enumeration over one bag (the
// same shape bench/perf_entropy_engine.cc replays).
std::vector<AttrSet> SplitWorkload(uint32_t num_attrs,
                                   uint32_t masks_per_separator, Rng* rng) {
  std::vector<AttrSet> terms;
  AttrSet bag = AttrSet::Range(num_attrs);
  for (uint32_t sep_size = 0; sep_size <= 2; ++sep_size) {
    ForEachSubsetOfSize(bag, sep_size, [&](AttrSet c) {
      AttrSet rest = bag.Minus(c);
      std::vector<uint32_t> idx = rest.ToIndices();
      terms.push_back(bag);
      terms.push_back(c);
      for (uint32_t m = 0; m < masks_per_separator; ++m) {
        AttrSet a, b;
        for (uint32_t p : idx) {
          if (rng->Bernoulli(0.5)) {
            a.Add(p);
          } else {
            b.Add(p);
          }
        }
        if (a.Empty() || b.Empty()) continue;
        terms.push_back(a.Union(c));
        terms.push_back(b.Union(c));
      }
    });
  }
  return terms;
}

// Code rows of a slowly-growing log: attributes [0, attrs/2) are uniform
// low-cardinality dimensions; attributes [attrs/2, attrs) DRIFT — their
// values track the row's position at per-column granularities (think
// month/week/day buckets of one underlying timestamp, or the rolling id
// of the currently active entity), drawn from a small window around the
// current bucket. Old codes retire as rows arrive, so the columns'
// partition blocks are FAT (low cardinality) and QUIET (appends only
// touch the last few), and being views of one clock they stay mutually
// correlated — deep chains keep fat blocks instead of collapsing.
std::vector<std::vector<uint32_t>> MakeLogRows(uint64_t n, uint32_t attrs,
                                               uint32_t dim_domain,
                                               Rng* rng) {
  std::vector<std::vector<uint32_t>> rows(n,
                                          std::vector<uint32_t>(attrs, 0));
  const uint32_t half = attrs / 2;
  for (uint64_t i = 0; i < n; ++i) {
    for (uint32_t a = 0; a < attrs; ++a) {
      if (a < half) {
        rows[i][a] = static_cast<uint32_t>(rng->UniformU64(dim_domain));
      } else {
        const uint64_t cardinality = uint64_t{16} << (a - half);
        const uint64_t g = std::max<uint64_t>(1, n / cardinality);
        const uint64_t head = i / g;
        const uint64_t lo = head > 3 ? head - 3 : 0;
        rows[i][a] = static_cast<uint32_t>(rng->UniformRange(lo, head));
      }
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: CI-friendly sizes that keep the store round-trip, the warm
  // restart, and the equivalence guard exercised without meaningful
  // timings.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const uint32_t kAttrs = smoke ? 8 : 12;
  const uint64_t kRows = smoke ? 2000 : 40000;
  const uint32_t kDimDomain = 16;
  const uint32_t kMasksPerSeparator = smoke ? 4 : 12;

  Rng rng(20260730);

  // One canonical row sequence; every arm's relation is rebuilt from it so
  // the contents (and therefore the fingerprints) match exactly. The seed
  // sees the first N0 rows, both timed arms the full N0 + delta.
  const std::vector<std::vector<uint32_t>> all_rows =
      MakeLogRows(kRows, kAttrs, kDimDomain, &rng);
  const uint64_t n_total = all_rows.size();
  const uint64_t delta = n_total / 50;
  const uint64_t n0 = n_total - delta;
  const std::vector<std::vector<uint32_t>> base_rows(
      all_rows.begin(), all_rows.begin() + static_cast<ptrdiff_t>(n0));

  std::vector<AttrSet> terms = SplitWorkload(kAttrs, kMasksPerSeparator,
                                             &rng);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ajd_perf_persist_" + std::to_string(static_cast<unsigned long>(
                                 ::getpid())));
  std::filesystem::remove_all(dir);

  PersistOptions popt;
  popt.fsync_writes = false;  // timing the tier, not the disk platter

  std::vector<std::string> names;
  for (uint32_t a = 0; a < kAttrs; ++a) names.push_back("a" + std::to_string(a));
  const Schema schema = Schema::MakeUniform(names, 0).value();

  // --- Seed process: serve the workload at N0, persist, "shut down". ---
  double persist_cache_ns = 0;
  {
    auto store = PersistentCacheStore::Open(dir.string(), popt).value();
    Relation seed =
        Relation::FromRows(schema, base_rows, false).value();
    EngineOptions opt;
    opt.persist_store = store;
    EntropyEngine engine(&seed, opt);
    (void)engine.BatchEntropy(terms);
    const double t_persist = NowNs();
    Status persisted = engine.PersistCache();
    persist_cache_ns = NowNs() - t_persist;
    if (!persisted.ok()) {
      std::fprintf(stderr, "PersistCache failed: %s\n",
                   persisted.ToString().c_str());
      return 1;
    }
  }  // engine and store destroyed: the "process" exits

  const std::vector<std::vector<uint32_t>> delta_rows(
      all_rows.begin() + static_cast<ptrdiff_t>(n0), all_rows.end());

  // One (a)-(d) restart timeline; with a store the engine warm-starts.
  struct ArmResult {
    std::vector<double> sweep1, sweep2;
    double total_ns = 0, restart_ns = 0, sweep1_ns = 0;
    EngineStats stats;
  };
  auto run_arm = [&](std::shared_ptr<PersistentCacheStore> store) {
    ArmResult res;
    const double start = NowNs();
    Relation r = Relation::FromRows(schema, base_rows, false).value();
    EngineOptions opt;
    opt.persist_store = std::move(store);
    EntropyEngine engine(&r, opt);
    res.restart_ns = NowNs() - start;
    const double t_sweep = NowNs();
    res.sweep1 = engine.BatchEntropy(terms);
    res.sweep1_ns = NowNs() - t_sweep;
    if (!r.AppendBatch(delta_rows).ok()) std::abort();
    res.sweep2 = engine.BatchEntropy(terms);
    res.total_ns = NowNs() - start;
    res.stats = engine.Stats();
    return res;
  };

  const ArmResult cold = run_arm(nullptr);
  // Reopening the store runs the normal restart recovery path.
  const ArmResult warm =
      run_arm(PersistentCacheStore::Open(dir.string(), popt).value());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // Equivalence guard: a persisted cache may cost time, never correctness.
  for (size_t i = 0; i < terms.size(); ++i) {
    if (std::abs(cold.sweep1[i] - warm.sweep1[i]) > 1e-9 ||
        std::abs(cold.sweep2[i] - warm.sweep2[i]) > 1e-9) {
      std::fprintf(
          stderr,
          "MISMATCH term %zu: sweep1 cold=%.15f warm=%.15f / sweep2 "
          "cold=%.15f warm=%.15f\n",
          i, cold.sweep1[i], warm.sweep1[i], cold.sweep2[i],
          warm.sweep2[i]);
      return 1;
    }
  }
  if (warm.stats.persist_reloads == 0) {
    std::fprintf(stderr,
                 "warm restart reloaded nothing from disk — the tier is "
                 "not wired\n");
    return 1;
  }

  std::printf(
      "{\"bench\":\"perf_persist\",\"smoke\":%s,"
      "\"rows_base\":%llu,\"rows_delta\":%llu,\"attrs\":%u,\"terms\":%zu,"
      "\"cold_total_ms\":%.1f,\"warm_total_ms\":%.1f,"
      "\"cold_sweep1_ms\":%.1f,\"warm_sweep1_ms\":%.1f,"
      "\"warm_restart_ms\":%.1f,\"persist_cache_ms\":%.1f,"
      "\"speedup_warm_restart\":%.2f,\"speedup_first_sweep\":%.2f,"
      "\"persist_reloads\":%llu,\"persist_hits\":%llu,"
      "\"partitions_extended\":%llu,\"persist_fallbacks\":%llu,"
      "\"persist_spills\":%llu}\n",
      smoke ? "true" : "false", static_cast<unsigned long long>(n0),
      static_cast<unsigned long long>(delta), kAttrs, terms.size(),
      cold.total_ns / 1e6, warm.total_ns / 1e6, cold.sweep1_ns / 1e6,
      warm.sweep1_ns / 1e6, warm.restart_ns / 1e6, persist_cache_ns / 1e6,
      cold.total_ns / warm.total_ns,
      (cold.restart_ns + cold.sweep1_ns) /
          (warm.restart_ns + warm.sweep1_ns),
      static_cast<unsigned long long>(warm.stats.persist_reloads),
      static_cast<unsigned long long>(warm.stats.persist_hits),
      static_cast<unsigned long long>(warm.stats.partitions_extended),
      static_cast<unsigned long long>(warm.stats.persist_fallbacks),
      static_cast<unsigned long long>(warm.stats.persist_spills));
  return 0;
}
