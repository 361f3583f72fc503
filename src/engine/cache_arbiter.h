// CacheArbiter: the partition-cache byte budget, and the only eviction
// mechanism, of every EntropyEngine.
//
// Engines register at construction, charge every cached partition they
// insert, and the arbiter evicts the GLOBALLY least-recently-used entry
// whenever the accounted total passes the budget. A standalone engine
// holds a single-engine arbiter of its own; an AnalysisSession attaches
// one arbiter to all of its engines, so a sweep over dozens of relations
// (the approximate-scheme-mining workload) spends one budget on whichever
// relations are actually reusing partitions, instead of an even slice per
// relation in which a hot relation thrashes while a cold one parks bytes
// it will never touch again. A per-engine floor keeps a hot relation from
// starving a warm one to zero: an engine at or below the floor is never
// picked as a victim (the floor self-clamps to budget / num_engines so the
// floors can always be honored while staying within budget).
//
// Locking contract (the reason cross-engine eviction cannot deadlock):
//   - Engines call the arbiter ONLY while holding no engine mutex.
//   - The arbiter invokes an engine's evict callback while holding its own
//     mutex; the callback takes that engine's mutex (and, when the engine
//     spills the victim to its disk tier, the store's leaf mutex).
// So the only lock order that ever occurs is arbiter -> engine -> store,
// never the reverse. The accounted total therefore never exceeds the budget
// after any Charge() returns, no matter how many engines charge
// concurrently.
//
// Victim selection is an intrusive LRU list threaded through every
// accounted entry (front = most recent): charges and touches splice to the
// front in O(1), and eviction walks from the tail, skipping entries of
// engines at or below the floor. One EvictToBudget pass therefore costs
// O(evicted + skipped) instead of the old O(all entries) scan per victim —
// the order of victims is IDENTICAL to that scan (list position is
// order-isomorphic to the last-used tick the scan minimized), which
// tests/cache_arbiter_test.cc pins against a recorded trace.
#ifndef AJD_ENGINE_CACHE_ARBITER_H_
#define AJD_ENGINE_CACHE_ARBITER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relation/attr_set.h"

namespace ajd {

/// Tuning for a CacheArbiter.
struct ArbiterOptions {
  /// The single byte budget shared by every registered engine's cached
  /// partitions. 0 means "cache nothing": every charged entry is evicted
  /// before Charge() returns (engines still compute correctly — they just
  /// never find a cached base).
  size_t budget_bytes = size_t{256} << 20;
  /// An engine whose accounted footprint is at or below this floor is never
  /// selected as an eviction victim, so a burst from one hot relation
  /// cannot drain a warm relation's working set to zero. Self-clamps to
  /// budget_bytes / num_engines, which keeps "respect every floor" and
  /// "stay within budget" simultaneously satisfiable.
  size_t engine_floor_bytes = size_t{1} << 20;
};

/// Counters describing arbiter behavior (monotone, snapshot via Stats()).
struct ArbiterStats {
  uint64_t charges = 0;    ///< entries charged by engines.
  uint64_t touches = 0;    ///< LRU touches (cached-base reuses).
  uint64_t evictions = 0;  ///< entries evicted for the budget.
};

/// The budget. Thread-safe; owned by an AnalysisSession and attached to its
/// engines via EngineOptions::cache_arbiter, or created by a standalone
/// engine for itself.
class CacheArbiter {
 public:
  /// Drops one cached entry engine-side. Called by the arbiter with its
  /// own mutex held; the callback may take the engine's mutex (see the
  /// locking contract above) but must not call back into the arbiter.
  using EvictFn = std::function<void(AttrSet)>;

  explicit CacheArbiter(ArbiterOptions options = {});

  CacheArbiter(const CacheArbiter&) = delete;
  CacheArbiter& operator=(const CacheArbiter&) = delete;

  /// Registers an engine and its evict callback. `engine` is an opaque
  /// identity token (the engine's address); it must stay registered until
  /// ReleaseEngine.
  void RegisterEngine(const void* engine, EvictFn evict);

  /// Discharges the engine's whole accounted footprint and forgets it, in
  /// O(its entries). Called from the engine's destructor — the path behind
  /// AnalysisSession::Release(r). No evict callbacks are invoked (the
  /// engine is tearing down its own cache).
  void ReleaseEngine(const void* engine);

  /// Charges freshly cached entries to `engine` and evicts globally-LRU
  /// entries (possibly from OTHER engines, possibly these very entries
  /// when the budget is tiny) until the accounted total fits the budget
  /// again. Entries are (key, heap bytes) pairs; keys already accounted
  /// for this engine are treated as touches.
  void Charge(const void* engine,
              const std::vector<std::pair<AttrSet, size_t>>& entries);

  /// Marks an accounted entry most-recently-used (a cached-base reuse).
  /// Unknown keys are ignored (the entry may have been evicted since the
  /// engine looked it up — the reuse already happened engine-side via the
  /// shared_ptr, only the recency signal is lost).
  void Touch(const void* engine, AttrSet key);

  /// Engine-initiated discharge of specific entries the engine already
  /// dropped on its side (catch-up's generational policy evicts partitions
  /// that sat idle through a whole epoch rather than paying to extend
  /// them). No evict callbacks run — the entries are already gone — and
  /// unknown keys are ignored.
  void Discharge(const void* engine, const std::vector<AttrSet>& keys);

  /// Bytes currently accounted across all engines. Never exceeds
  /// budget_bytes() after any public call returns.
  size_t AccountedBytes() const;

  /// Bytes currently accounted to one engine (0 if unknown).
  size_t EngineBytes(const void* engine) const;

  /// Number of registered engines.
  size_t NumEngines() const;

  /// Counter snapshot.
  ArbiterStats Stats() const;

  size_t budget_bytes() const { return options_.budget_bytes; }

  /// The floor actually enforced right now: min(engine_floor_bytes,
  /// budget_bytes / num_engines).
  size_t EffectiveFloorBytes() const;

 private:
  /// One LRU-list node: enough to find the owning engine's record and the
  /// entry inside it from a list position alone.
  struct LruKey {
    const void* engine = nullptr;
    AttrSet key;
  };
  struct Entry {
    size_t bytes = 0;
    /// This entry's node in lru_ (front = most recently used); the list
    /// position IS the recency — no per-entry tick survives the old scan.
    std::list<LruKey>::iterator lru_it;
  };
  struct EngineRecord {
    EvictFn evict;
    size_t bytes = 0;
    std::unordered_map<AttrSet, Entry, AttrSetHash> entries;
  };

  size_t EffectiveFloorLocked() const;

  /// Evicts globally-coldest entries from above-floor engines until the
  /// total fits the budget: one backward walk of the LRU list, skipping
  /// floored engines' entries (an engine's bytes only shrink during the
  /// walk, so a skip stays valid for the rest of the pass). Requires mu_
  /// held; invokes evict callbacks.
  void EvictToBudgetLocked();

  ArbiterOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<const void*, EngineRecord> engines_;
  /// Global recency order across every accounted entry; front = MRU.
  std::list<LruKey> lru_;
  size_t total_bytes_ = 0;
  ArbiterStats stats_;
};

}  // namespace ajd

#endif  // AJD_ENGINE_CACHE_ARBITER_H_
