// Experiment PERF-ENGINE — A/B of the legacy per-call EntropyOf against the
// shared columnar EntropyEngine on a candidate-split workload.
//
// The workload is the one the miner's former top-down split search
// evaluated on a wide relation, kept as a fixed engine benchmark: for
// every separator C up to size 2 and a sample of bipartitions A | B of the
// remaining attributes, the terms H(A u C), H(B u C), H(bag), H(C). Three
// contenders:
//   legacy          — EntropyOf per term (re-scan + re-hash every call);
//   memoized legacy — EntropyOf once per distinct term (what the old
//                     EntropyCalculator cache achieved);
//   engine          — EntropyEngine with partition reuse + batch API.
//
// Emits one machine-readable JSON line so future PRs can track the
// trajectory. The acceptance target is engine >= 3x legacy on >= 10
// attributes.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "engine/entropy_engine.h"
#include "info/entropy.h"
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

// The attr-set terms of the miner's split enumeration over one bag.
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

}  // namespace

int main(int argc, char** argv) {
  // --smoke: CI-friendly sizes that keep the JSON emitter and the
  // equivalence guard exercised without meaningful timings.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const uint32_t kAttrs = smoke ? 8 : 12;
  const uint64_t kRows = smoke ? 500 : 4000;
  const uint32_t kDomain = 3;
  const uint32_t kMasksPerSeparator = smoke ? 4 : 12;

  Rng rng(20260730);
  RandomRelationSpec spec;
  spec.domain_sizes.assign(kAttrs, kDomain);
  spec.num_tuples = kRows;
  Relation r = SampleRandomRelation(spec, &rng).value();

  std::vector<AttrSet> terms = SplitWorkload(kAttrs, kMasksPerSeparator,
                                             &rng);

  // Legacy: one full re-scan per term.
  double t0 = NowNs();
  double legacy_sum = 0.0;
  for (AttrSet s : terms) legacy_sum += EntropyOf(r, s);
  double legacy_ns = NowNs() - t0;

  // Memoized legacy: one re-scan per distinct term.
  t0 = NowNs();
  double memo_sum = 0.0;
  {
    std::unordered_map<AttrSet, double, AttrSetHash> memo;
    for (AttrSet s : terms) {
      auto it = memo.find(s);
      if (it == memo.end()) {
        it = memo.emplace(s, EntropyOf(r, s)).first;
      }
      memo_sum += it->second;
    }
  }
  double memo_ns = NowNs() - t0;

  // Engine: shared partitions + entropy cache, batch evaluation.
  t0 = NowNs();
  double engine_sum = 0.0;
  EntropyEngine engine(&r);
  {
    std::vector<double> hs = engine.BatchEntropy(terms);
    for (double h : hs) engine_sum += h;
  }
  double engine_ns = NowNs() - t0;

  // Equivalence guard: the three contenders must agree to fp accumulation.
  if (std::abs(legacy_sum - engine_sum) > 1e-6 * terms.size()) {
    std::fprintf(stderr, "MISMATCH legacy=%.12f engine=%.12f\n", legacy_sum,
                 engine_sum);
    return 1;
  }

  EngineStats stats = engine.Stats();
  const double n_terms = static_cast<double>(terms.size());
  std::printf(
      "{\"bench\":\"perf_entropy_engine\",\"smoke\":%s,"
      "\"rows\":%llu,\"attrs\":%u,"
      "\"terms\":%zu,\"unique_terms\":%zu,"
      "\"legacy_ns_per_op\":%.1f,\"memoized_legacy_ns_per_op\":%.1f,"
      "\"engine_ns_per_op\":%.1f,"
      "\"speedup_vs_legacy\":%.2f,\"speedup_vs_memoized\":%.2f,"
      "\"cache_hit_rate\":%.4f,\"base_reuses\":%llu,\"refinements\":%llu}\n",
      smoke ? "true" : "false",
      static_cast<unsigned long long>(r.NumRows()), kAttrs, terms.size(),
      engine.CacheSize(), legacy_ns / n_terms, memo_ns / n_terms,
      engine_ns / n_terms, legacy_ns / engine_ns, memo_ns / engine_ns,
      stats.HitRate(),
      static_cast<unsigned long long>(stats.base_reuses),
      static_cast<unsigned long long>(stats.refinements));
  return 0;
}
