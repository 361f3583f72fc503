#include "engine/analysis_session.h"

#include <utility>

#include "util/check.h"

namespace ajd {

AnalysisSession::AnalysisSession(SessionOptions options)
    : engine_options_(std::move(options.engine)) {
  // Resolve the pool once at session scope: engines created later all
  // share it, and TotalStats/worker_pool() observers need a stable handle.
  if (engine_options_.worker_pool == nullptr) {
    engine_options_.worker_pool = WorkerPool::Shared();
  }
  // Resolve the shared cache budget the same way: the per-engine budget
  // becomes one session-global budget. An arbiter injected through the
  // engine options is respected as-is (several sessions can then share
  // ONE budget).
  if (engine_options_.cache_arbiter == nullptr) {
    ArbiterOptions arb;
    arb.budget_bytes = engine_options_.cache_budget_bytes;
    arb.engine_floor_bytes = options.cache_floor_bytes;
    engine_options_.cache_arbiter = std::make_shared<CacheArbiter>(arb);
  }
}

AnalysisSession::AnalysisSession(EngineOptions options)
    : AnalysisSession([&options] {
        SessionOptions session_options;
        session_options.engine = std::move(options);
        return session_options;
      }()) {}

EntropyEngine& AnalysisSession::EngineFor(const Relation& r) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(&r);
  if (it != engines_.end() && it->second->relation_uid() != r.uid()) {
    // Relations are keyed by address: a different relation (by uid) now
    // occupies this one's address, so the cached engine describes a dead
    // relation. Rebuild transparently — the replacement for the old
    // fingerprint-guard abort. (Same uid with a newer epoch is NOT this
    // case: that is legitimate growth, and the engine catches up lazily.)
    engines_.erase(it);
    it = engines_.end();
  }
  if (it == engines_.end()) {
    it = engines_
             .emplace(&r,
                      std::make_unique<EntropyEngine>(&r, engine_options_))
             .first;
  }
  return *it->second;
}

bool AnalysisSession::Release(const Relation& r) {
  // ~EntropyEngine discharges the engine's footprint from the shared
  // arbiter (O(its entries)); a relation without an engine — never served,
  // or already released — is a no-op.
  std::lock_guard<std::mutex> lock(mu_);
  return engines_.erase(&r) > 0;
}

Status AnalysisSession::PersistAll() {
  // Snapshot the engine pointers under mu_, persist outside it: PersistCache
  // runs a catch-up plus a journal write per engine, and holding the session
  // mutex across that would block EngineFor on every other thread. The
  // unique_ptrs stay valid because only Release/~AnalysisSession drop them
  // and callers of PersistAll own the shutdown sequence.
  std::vector<EntropyEngine*> engines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    engines.reserve(engines_.size());
    for (const auto& entry : engines_) engines.push_back(entry.second.get());
  }
  Status first = Status::OK();
  for (EntropyEngine* e : engines) {
    if (options().persist_store == nullptr) break;
    Status s = e->PersistCache();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

size_t AnalysisSession::NumRelations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engines_.size();
}

size_t AnalysisSession::CacheBytes() const {
  return engine_options_.cache_arbiter->AccountedBytes();
}

EngineStats AnalysisSession::TotalStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats total;
  for (const auto& entry : engines_) {
    EngineStats s = entry.second->Stats();
    total.queries += s.queries;
    total.hits += s.hits;
    total.base_reuses += s.base_reuses;
    total.partition_builds += s.partition_builds;
    total.refinements += s.refinements;
    total.evictions += s.evictions;
    total.epoch_catchups += s.epoch_catchups;
    total.partitions_extended += s.partitions_extended;
    total.partitions_replayed += s.partitions_replayed;
    total.catchup_dropped += s.catchup_dropped;
    total.catchup_aborts += s.catchup_aborts;
    total.persist_hits += s.persist_hits;
    total.persist_reloads += s.persist_reloads;
    total.persist_fallbacks += s.persist_fallbacks;
  }
  return total;
}

}  // namespace ajd
