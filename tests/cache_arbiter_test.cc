// Deterministic tests for the shared cache budget (engine/cache_arbiter.h):
// cross-engine LRU victim order, per-engine floor enforcement, exact
// discharge on engine release, and the budget=0 / budget=huge edge cases —
// first against recording fake engines (exact victim sequences), then
// through real EntropyEngines sharing one arbiter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "engine/analysis_session.h"
#include "engine/cache_arbiter.h"
#include "engine/entropy_engine.h"
#include "info/entropy.h"
#include "random/rng.h"
#include "relation/attr_set.h"
#include "test_util.h"

namespace ajd {
namespace {

// A fake engine: an identity token plus a log of the keys the arbiter told
// it to drop, in order.
struct FakeEngine {
  std::vector<AttrSet> dropped;

  void Register(CacheArbiter* arb) {
    arb->RegisterEngine(this,
                        [this](AttrSet key) { dropped.push_back(key); });
  }
};

// Charges one (key, bytes) entry.
void ChargeOne(CacheArbiter* arb, const FakeEngine* e, uint32_t key_mask,
               size_t bytes) {
  arb->Charge(e, {{AttrSet::FromMask(key_mask), bytes}});
}

TEST(CacheArbiter, EvictsGloballyColdestAcrossEngines) {
  ArbiterOptions opts;
  opts.budget_bytes = 1000;
  opts.engine_floor_bytes = 0;  // pure global LRU for this test
  CacheArbiter arb(opts);
  FakeEngine a, b;
  a.Register(&arb);
  b.Register(&arb);

  ChargeOne(&arb, &a, 1, 400);  // oldest
  ChargeOne(&arb, &a, 2, 400);
  EXPECT_EQ(arb.AccountedBytes(), 800u);
  // b's first charge overflows: the victim is a's key 1 — an entry of the
  // OTHER engine, because it is globally coldest.
  ChargeOne(&arb, &b, 3, 400);
  ASSERT_EQ(a.dropped.size(), 1u);
  EXPECT_EQ(a.dropped[0], AttrSet::FromMask(1));
  EXPECT_TRUE(b.dropped.empty());
  EXPECT_EQ(arb.AccountedBytes(), 800u);
  EXPECT_EQ(arb.EngineBytes(&a), 400u);
  EXPECT_EQ(arb.EngineBytes(&b), 400u);

  // Touch a's surviving entry: it becomes globally hottest, so the next
  // overflow must evict b's key 3 instead.
  arb.Touch(&a, AttrSet::FromMask(2));
  ChargeOne(&arb, &b, 4, 400);
  ASSERT_EQ(b.dropped.size(), 1u);
  EXPECT_EQ(b.dropped[0], AttrSet::FromMask(3));
  EXPECT_EQ(a.dropped.size(), 1u);  // unchanged
  EXPECT_EQ(arb.AccountedBytes(), 800u);
}

TEST(CacheArbiter, PerEngineFloorProtectsWarmEngines) {
  ArbiterOptions opts;
  opts.budget_bytes = 1000;
  opts.engine_floor_bytes = 300;  // < budget / 2, so no self-clamping
  CacheArbiter arb(opts);
  FakeEngine warm, hot;
  warm.Register(&arb);
  hot.Register(&arb);
  EXPECT_EQ(arb.EffectiveFloorBytes(), 300u);

  // The warm engine holds 250 bytes — below the floor, never a victim —
  // in the two globally-OLDEST entries.
  ChargeOne(&arb, &warm, 1, 125);
  ChargeOne(&arb, &warm, 2, 125);
  // The hot engine blows the budget; every eviction must come from the hot
  // engine itself even though the warm entries are colder.
  for (uint32_t k = 0; k < 6; ++k) {
    ChargeOne(&arb, &hot, 8 + k, 200);
    EXPECT_LE(arb.AccountedBytes(), opts.budget_bytes);
  }
  EXPECT_TRUE(warm.dropped.empty());
  EXPECT_EQ(arb.EngineBytes(&warm), 250u);
  // Hot evictions happened, oldest-first.
  ASSERT_GE(hot.dropped.size(), 2u);
  EXPECT_EQ(hot.dropped[0], AttrSet::FromMask(8));
  EXPECT_EQ(hot.dropped[1], AttrSet::FromMask(9));
}

TEST(CacheArbiter, FloorSelfClampsToBudgetOverEngines) {
  ArbiterOptions opts;
  opts.budget_bytes = 400;
  opts.engine_floor_bytes = 1000;  // deliberately unsatisfiable as-is
  CacheArbiter arb(opts);
  FakeEngine a, b;
  a.Register(&arb);
  b.Register(&arb);
  // Clamped to budget / num_engines, so the floors stay jointly honorable.
  EXPECT_EQ(arb.EffectiveFloorBytes(), 200u);
  ChargeOne(&arb, &a, 1, 300);
  ChargeOne(&arb, &b, 2, 300);
  // Both engines sit above the clamped floor; the coldest (a's entry) goes.
  EXPECT_LE(arb.AccountedBytes(), opts.budget_bytes);
  ASSERT_EQ(a.dropped.size(), 1u);
  EXPECT_TRUE(b.dropped.empty());
}

TEST(CacheArbiter, ReleaseEngineDischargesExactlyItsFootprint) {
  ArbiterOptions opts;
  opts.budget_bytes = size_t{1} << 30;
  CacheArbiter arb(opts);
  FakeEngine a, b;
  a.Register(&arb);
  b.Register(&arb);
  ChargeOne(&arb, &a, 1, 111);
  ChargeOne(&arb, &a, 2, 222);
  ChargeOne(&arb, &b, 3, 555);
  EXPECT_EQ(arb.AccountedBytes(), 888u);
  EXPECT_EQ(arb.NumEngines(), 2u);

  arb.ReleaseEngine(&a);
  EXPECT_EQ(arb.AccountedBytes(), 555u);
  EXPECT_EQ(arb.EngineBytes(&a), 0u);
  EXPECT_EQ(arb.NumEngines(), 1u);
  // Release invokes no evict callbacks: the engine is dropping its own
  // cache, and a second release of the same engine is a no-op.
  EXPECT_TRUE(a.dropped.empty());
  arb.ReleaseEngine(&a);
  EXPECT_EQ(arb.AccountedBytes(), 555u);
}

TEST(CacheArbiter, ZeroBudgetCachesNothingButNeverOverflows) {
  ArbiterOptions opts;
  opts.budget_bytes = 0;
  CacheArbiter arb(opts);
  FakeEngine a;
  a.Register(&arb);
  for (uint32_t k = 1; k <= 5; ++k) {
    ChargeOne(&arb, &a, k, 64 * k);
    EXPECT_EQ(arb.AccountedBytes(), 0u);  // evicted before Charge returned
  }
  EXPECT_EQ(a.dropped.size(), 5u);
  EXPECT_EQ(arb.Stats().evictions, 5u);
}

TEST(CacheArbiter, HugeBudgetNeverEvicts) {
  ArbiterOptions opts;
  opts.budget_bytes = ~size_t{0};
  CacheArbiter arb(opts);
  FakeEngine a, b;
  a.Register(&arb);
  b.Register(&arb);
  size_t total = 0;
  for (uint32_t k = 1; k <= 32; ++k) {
    ChargeOne(&arb, k % 2 ? &a : &b, k, 4096 * k);
    total += 4096 * k;
  }
  EXPECT_EQ(arb.AccountedBytes(), total);
  EXPECT_EQ(arb.Stats().evictions, 0u);
  EXPECT_TRUE(a.dropped.empty());
  EXPECT_TRUE(b.dropped.empty());
}

TEST(CacheArbiter, RechargeAfterEvictionIsAFreshEntry) {
  ArbiterOptions opts;
  opts.budget_bytes = 500;
  opts.engine_floor_bytes = 0;
  CacheArbiter arb(opts);
  FakeEngine a;
  a.Register(&arb);
  ChargeOne(&arb, &a, 1, 300);
  ChargeOne(&arb, &a, 2, 300);  // evicts key 1
  ASSERT_EQ(a.dropped.size(), 1u);
  // The engine recomputed key 1 and charges it again: accounted anew and
  // the now-coldest key 2 is the next victim.
  ChargeOne(&arb, &a, 1, 300);
  ASSERT_EQ(a.dropped.size(), 2u);
  EXPECT_EQ(a.dropped[1], AttrSet::FromMask(2));
  EXPECT_EQ(arb.AccountedBytes(), 300u);
}

// --- Through real engines ----------------------------------------------

TEST(CacheArbiter, RealEnginesShareOneBudgetAndStayCorrect) {
  Rng rng(930);
  Relation r1 = testing_util::RandomTestRelation(&rng, 5, 3, 200);
  Relation r2 = testing_util::RandomTestRelation(&rng, 5, 4, 150);

  ArbiterOptions arb_opts;
  arb_opts.budget_bytes = 8192;  // tiny: forces cross-engine eviction
  arb_opts.engine_floor_bytes = 1024;
  auto arbiter = std::make_shared<CacheArbiter>(arb_opts);
  EngineOptions opts;
  opts.cache_arbiter = arbiter;
  EntropyEngine e1(&r1, opts);
  EntropyEngine e2(&r2, opts);

  for (uint32_t m = 1; m < 32; ++m) {
    AttrSet attrs = AttrSet::FromMask(m);
    EXPECT_NEAR(e1.Entropy(attrs), EntropyOf(r1, attrs), 1e-9);
    EXPECT_LE(arbiter->AccountedBytes(), arb_opts.budget_bytes);
    EXPECT_NEAR(e2.Entropy(attrs), EntropyOf(r2, attrs), 1e-9);
    EXPECT_LE(arbiter->AccountedBytes(), arb_opts.budget_bytes);
  }
  EXPECT_GT(arbiter->Stats().evictions, 0u);
  // The arbiter's per-engine account matches each engine's own bookkeeping.
  EXPECT_EQ(arbiter->EngineBytes(&e1), e1.PartitionBytes());
  EXPECT_EQ(arbiter->EngineBytes(&e2), e2.PartitionBytes());
  EXPECT_EQ(arbiter->AccountedBytes(),
            e1.PartitionBytes() + e2.PartitionBytes());
}

TEST(CacheArbiter, SessionArbiterBudgetIsEngineBudget) {
  Rng rng(931);
  Relation r = testing_util::RandomTestRelation(&rng, 6, 3, 250);

  // The session builds one arbiter whose budget is the engine budget, and
  // every engine it serves stays within it.
  SessionOptions opts;
  opts.engine.cache_budget_bytes = 4096;
  AnalysisSession session(opts);
  ASSERT_NE(session.cache_arbiter(), nullptr);
  EXPECT_EQ(session.cache_arbiter()->budget_bytes(),
            opts.engine.cache_budget_bytes);
  EntropyEngine& engine = session.EngineFor(r);
  for (uint32_t m = 1; m < 64; ++m) {
    engine.Entropy(AttrSet::FromMask(m));
    EXPECT_LE(session.CacheBytes(), opts.engine.cache_budget_bytes);
  }
  EXPECT_GT(session.TotalStats().evictions, 0u);

  // The EngineOptions constructor resolves the same way.
  EngineOptions engine_opts;
  engine_opts.cache_budget_bytes = size_t{1} << 30;
  AnalysisSession from_engine_opts(engine_opts);
  ASSERT_NE(from_engine_opts.cache_arbiter(), nullptr);
  EXPECT_EQ(from_engine_opts.cache_arbiter()->budget_bytes(),
            engine_opts.cache_budget_bytes);
}

TEST(CacheArbiter, SessionReleaseReturnsBytesToSurvivors) {
  Rng rng(932);
  Relation keep = testing_util::RandomTestRelation(&rng, 5, 3, 200);
  Relation drop = testing_util::RandomTestRelation(&rng, 5, 3, 220);

  SessionOptions opts;
  opts.engine.cache_budget_bytes = size_t{1} << 30;
  AnalysisSession session(opts);
  for (uint32_t m = 1; m < 32; ++m) {
    session.EngineFor(keep).Entropy(AttrSet::FromMask(m));
    session.EngineFor(drop).Entropy(AttrSet::FromMask(m));
  }
  const size_t keep_bytes = session.EngineFor(keep).PartitionBytes();
  const size_t both = session.CacheBytes();
  EXPECT_GT(keep_bytes, 0u);
  EXPECT_GT(both, keep_bytes);

  // Release discharges exactly the dropped engine's footprint.
  EXPECT_TRUE(session.Release(drop));
  EXPECT_EQ(session.CacheBytes(), keep_bytes);
  EXPECT_EQ(session.cache_arbiter()->NumEngines(), 1u);
}

// --- Intrusive-LRU victim order vs the reference linear scan --------------

// A reference model of the PRE-LRU-list arbiter: per-entry last-used ticks,
// victim = argmin tick among engines above the (self-clamped) floor. The
// intrusive list replaced the O(entries) scan per victim; this randomized
// trace pins that the victim ORDER is unchanged.
struct RefModel {
  struct Entry {
    size_t bytes = 0;
    uint64_t last_used = 0;
  };
  struct Engine {
    std::map<uint64_t, Entry> entries;  // key mask -> entry
    size_t bytes = 0;
  };
  size_t budget = 0;
  size_t floor_opt = 0;
  uint64_t tick = 0;
  size_t total = 0;
  std::map<int, Engine> engines;
  std::vector<std::pair<int, uint64_t>> victims;  // (engine id, key mask)

  size_t Floor() const {
    return engines.empty() ? floor_opt
                           : std::min(floor_opt, budget / engines.size());
  }
  void EvictToBudget() {
    const size_t floor = Floor();
    while (total > budget) {
      int victim_engine = -1;
      uint64_t victim_key = 0;
      uint64_t oldest = UINT64_MAX;
      for (auto& [id, eng] : engines) {
        if (eng.bytes <= floor) continue;
        for (auto& [key, entry] : eng.entries) {
          if (entry.last_used < oldest) {
            oldest = entry.last_used;
            victim_engine = id;
            victim_key = key;
          }
        }
      }
      if (victim_engine < 0) break;
      Engine& eng = engines[victim_engine];
      total -= eng.entries[victim_key].bytes;
      eng.bytes -= eng.entries[victim_key].bytes;
      eng.entries.erase(victim_key);
      victims.emplace_back(victim_engine, victim_key);
    }
  }
  void Charge(int id, uint64_t key, size_t bytes) {
    Engine& eng = engines[id];
    auto [it, inserted] = eng.entries.emplace(key, Entry{});
    if (inserted) {
      it->second.bytes = bytes;
      eng.bytes += bytes;
      total += bytes;
    }
    it->second.last_used = ++tick;
    EvictToBudget();
  }
  void Touch(int id, uint64_t key) {
    auto eit = engines.find(id);
    if (eit == engines.end()) return;
    auto it = eit->second.entries.find(key);
    if (it == eit->second.entries.end()) return;
    it->second.last_used = ++tick;
  }
  void Discharge(int id, uint64_t key) {
    auto eit = engines.find(id);
    if (eit == engines.end()) return;
    auto it = eit->second.entries.find(key);
    if (it == eit->second.entries.end()) return;
    eit->second.bytes -= it->second.bytes;
    total -= it->second.bytes;
    eit->second.entries.erase(it);
    // No victim record: the engine already dropped the entry itself, so no
    // evict callback runs.
  }
};

TEST(CacheArbiter, LruListVictimOrderMatchesLinearScanOnRandomTrace) {
  struct TraceEngine {
    int id = 0;
    std::vector<std::pair<int, uint64_t>>* log = nullptr;
  };
  ArbiterOptions opts;
  opts.budget_bytes = 3000;
  opts.engine_floor_bytes = 500;
  CacheArbiter arb(opts);
  RefModel ref;
  ref.budget = opts.budget_bytes;
  ref.floor_opt = opts.engine_floor_bytes;

  std::vector<std::pair<int, uint64_t>> victims;
  constexpr int kEngines = 3;
  TraceEngine engines[kEngines];
  for (int i = 0; i < kEngines; ++i) {
    engines[i] = {i, &victims};
    arb.RegisterEngine(&engines[i], [&victims, i](AttrSet key) {
      victims.emplace_back(i, key.mask());
    });
    ref.engines[i];  // register in the model too
  }

  Rng rng(4242);
  for (int op = 0; op < 600; ++op) {
    const int id = static_cast<int>(rng.UniformU64(kEngines));
    const uint64_t key = 1 + rng.UniformU64(24);
    const size_t bytes = 50 + rng.UniformU64(400);
    switch (rng.UniformU64(4)) {
      case 0:
      case 1:
        arb.Charge(&engines[id], {{AttrSet::FromMask(key), bytes}});
        ref.Charge(id, key, bytes);
        break;
      case 2:
        arb.Touch(&engines[id], AttrSet::FromMask(key));
        ref.Touch(id, key);
        break;
      default:
        // The live maintenance protocol: catch-up discharges a claimed
        // entry up front and re-charges the grown bytes at publish.
        arb.Discharge(&engines[id], {AttrSet::FromMask(key)});
        ref.Discharge(id, key);
        break;
    }
    ASSERT_EQ(arb.AccountedBytes(), ref.total) << "op " << op;
    ASSERT_EQ(victims, ref.victims) << "op " << op;
  }
  EXPECT_GT(victims.size(), 0u);  // the trace actually exercised eviction
}

TEST(CacheArbiter, DischargeThenChargeReaccountsGrownEntries) {
  // The catch-up maintenance protocol: claimed entries are discharged up
  // front and their grown bytes re-charged at publish, so the books track
  // the new sizes exactly.
  ArbiterOptions opts;
  opts.budget_bytes = 1000;
  opts.engine_floor_bytes = 0;
  CacheArbiter arb(opts);
  FakeEngine e;
  e.Register(&arb);
  ChargeOne(&arb, &e, 1, 300);
  ChargeOne(&arb, &e, 2, 300);
  arb.Discharge(&e, {AttrSet::FromMask(1)});
  EXPECT_EQ(arb.AccountedBytes(), 300u);
  EXPECT_TRUE(e.dropped.empty());  // engine-initiated: no evict callback
  // Unknown keys (already evicted, or double-discharged) are ignored.
  arb.Discharge(&e, {AttrSet::FromMask(1)});
  arb.Discharge(&e, {AttrSet::FromMask(7)});
  EXPECT_EQ(arb.AccountedBytes(), 300u);
  // Re-charging the grown entry accounts the NEW size and makes it MRU:
  // the next overflow victimizes key 2, not the freshly published key 1.
  ChargeOne(&arb, &e, 1, 400);
  EXPECT_EQ(arb.AccountedBytes(), 700u);
  ChargeOne(&arb, &e, 3, 350);
  ASSERT_GE(e.dropped.size(), 1u);
  EXPECT_EQ(e.dropped[0], AttrSet::FromMask(2));
}

}  // namespace
}  // namespace ajd
