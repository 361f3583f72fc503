// AnalysisSession: one handle owning a ColumnStore + EntropyEngine per
// relation, so that analysis-after-mining (or any sequence of library calls
// over the same relation) reuses every cached entropy and partition.
//
//   AnalysisSession session;
//   auto mined = MineJoinTree(&session, r);            // warms the caches
//   auto report = AnalyzeAjd(&session, r, mined->tree); // hits them
//
// Relations are identified by address + uid: callers must keep a relation
// alive and at a stable address for as long as the session serves queries
// on it. Relations may GROW under the session (Relation::AppendBatch): the
// engine observes the epoch bump and catches up incrementally on the next
// query (engine/entropy_engine.h). If a relation dies and a different one
// reuses its address, the uid mismatch makes EngineFor rebuild the engine
// transparently instead of serving stale values (Release remains the tidy
// way to drop an engine early and return its cache bytes). The session is
// safe to share across threads, INCLUDING concurrently with appends to its
// relations: there is no quiescence rule. A reader pins the (rows, epoch)
// stamp it starts with and computes the cold answer over that prefix while
// batches land; the first reader of a new epoch (or the appender, calling
// EntropyEngine::CatchUp after its batch) runs the engine's catch-up while
// everyone else keeps serving the previous stamp. The only remaining
// single-writer requirement is the append side itself: one appender per
// relation at a time (relation/relation.h).
//
// The session is SHARDED across relations: all of its engines share one
// WorkerPool (batches serialize instead of oversubscribing cores) and one
// CacheArbiter (engine/cache_arbiter.h) holding a single partition-cache
// byte budget, evicted globally-LRU across relations. A
// sweep over dozens of relations therefore spends its memory on whichever
// relations are actually reusing partitions, instead of provisioning an
// even slice per relation.
#ifndef AJD_ENGINE_ANALYSIS_SESSION_H_
#define AJD_ENGINE_ANALYSIS_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "engine/cache_arbiter.h"
#include "engine/entropy_engine.h"
#include "engine/worker_pool.h"
#include "relation/relation.h"

namespace ajd {

/// Session-level tuning: the per-engine knobs, whose cache budget becomes
/// the session's global one.
struct SessionOptions {
  /// The options every engine of the session is created with. Its
  /// `worker_pool` and `cache_arbiter` are resolved once at session scope
  /// so all engines share one of each; an arbiter injected here is kept
  /// as-is (several sessions can then share ONE budget — in which case
  /// `cache_budget_bytes` is ignored), otherwise the session builds one
  /// arbiter whose single budget, shared by every relation, is
  /// `cache_budget_bytes`, with the default per-engine floor
  /// (ArbiterOptions::engine_floor_bytes). Intra-op sharding of ONE large
  /// refinement (bit-identical to serial at any thread count) fans out on
  /// the same shared pool; nested submission from a batch task degrades
  /// to serial via the pool's busy-inline fallback, so the two never
  /// deadlock.
  EngineOptions engine;
};

/// Owns one EntropyEngine per relation, created lazily on first use.
///
/// The session also owns the two resources its engines share:
///   - the batch pool (EngineOptions::worker_pool, resolved once to the
///     process-wide WorkerPool::Shared() by default), which SERIALIZES
///     batches so a many-relation sweep never runs relations x threads;
///   - the cache arbiter (sized by EngineOptions::cache_budget_bytes),
///     which holds one partition byte budget for all relations and evicts
///     the globally coldest entry, with a per-engine floor.
class AnalysisSession {
 public:
  explicit AnalysisSession(SessionOptions options);
  /// Per-engine options with the default session sharding (the engine
  /// budget becomes the session budget).
  explicit AnalysisSession(EngineOptions options = {});

  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  /// The engine for `r`, building its ColumnStore on first use. The
  /// returned reference stays valid until Release(r) or the session's
  /// destruction.
  EntropyEngine& EngineFor(const Relation& r);

  /// Drops the engine (and every cached term) for `r`, if any; returns
  /// whether one existed — false for a relation the session never served
  /// (including a second Release of the same relation, which is a no-op).
  /// Call before destroying a relation when the session outlives it —
  /// e.g. experiment sweeps that draw a fresh relation per trial — so the
  /// dead relation's cache bytes return to the budget immediately rather
  /// than when a new relation's uid mismatch rebuilds the engine at that
  /// address. Under the shared arbiter this
  /// discharges the engine's whole accounted footprint in O(its entries),
  /// returning those bytes to the relations that remain. Any EntropyEngine
  /// references previously returned for `r` are invalidated.
  bool Release(const Relation& r);

  /// Writes every engine's current cache generation down to its disk tier
  /// (EntropyEngine::PersistCache) — the planned-shutdown hook that makes
  /// the next process's sessions warm-start. A no-op OK without a
  /// persistent store (EngineOptions::persist_store); otherwise returns the
  /// first failure, after attempting every engine.
  Status PersistAll();

  /// Number of relations with a live engine.
  size_t NumRelations() const;

  /// Aggregated counters across all engines.
  EngineStats TotalStats() const;

  /// The options new engines are created with (worker_pool and
  /// cache_arbiter resolved).
  const EngineOptions& options() const { return engine_options_; }

  /// The batch pool shared by all of this session's engines.
  WorkerPool& worker_pool() const { return *engine_options_.worker_pool; }

  /// The cache budget shared by all of this session's engines. Never null.
  CacheArbiter* cache_arbiter() const {
    return engine_options_.cache_arbiter.get();
  }

  /// Bytes currently accounted by the shared budget.
  size_t CacheBytes() const;

 private:
  EngineOptions engine_options_;
  mutable std::mutex mu_;
  std::unordered_map<const Relation*, std::unique_ptr<EntropyEngine>>
      engines_;
};

}  // namespace ajd

#endif  // AJD_ENGINE_ANALYSIS_SESSION_H_
