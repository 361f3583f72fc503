#include "engine/entropy_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "engine/cache_arbiter.h"
#include "engine/refine_kernels.h"
#include "engine/worker_pool.h"
#include "persist/persistent_store.h"
#include "relation/fingerprint.h"
#include "util/failpoint.h"

namespace ajd {

namespace {

// The batch thread policy: num_threads, with 0 meaning every CPU the
// process may run on. refine_threads = 0 inherits it.
uint32_t BatchThreads(const EngineOptions& options) {
  return options.num_threads != 0 ? options.num_threads : EffectiveCpuCount();
}

// Predicted work, in stripped-row refinement steps (the cost model's unit),
// that one pool participant must have before a fan-out pays for its
// hand-off: ~1 ms of kernel time at a few ns per row-step, against pool
// wakeups and cache-mutex traffic in the tens of microseconds. Sized so
// a batch of a few dozen misses over <= 1500 rows stays inline while the
// e2e fit shape (145k rows) fans out.
constexpr uint64_t kFanOutWorkPerWorker = uint64_t{1} << 18;

// A miss's work outside the kernel — column ranking, chain and result
// allocation, cache insert — in the same unit: ~15 us per miss on the
// perf_miner exhaustive configuration, where refinements are small.
constexpr uint64_t kMissFixedWork = uint64_t{1} << 12;

// The one fan-out gate, shared by batch, warm, prewarm, catch-up and
// intra-op shards: how many pool participants `tasks` tasks predicted to
// cost `predicted_work` row-steps in total should get. `threads` (the
// resolved thread count, explicit or every CPU) only caps the answer; the
// work decides it.
uint32_t FanOutWorkers(uint32_t threads, uint64_t predicted_work,
                       size_t tasks) {
  uint64_t workers = std::min<uint64_t>(threads, tasks);
  workers = std::min(workers, predicted_work / kFanOutWorkPerWorker);
  return workers < 1 ? 1 : static_cast<uint32_t>(workers);
}

// The engine's one level loop, shared by catch-up and the warm-start
// extension: runs task(i) for i in [0, n), whose items are sorted by
// ascending level_of(i), one level at a time with a pool barrier between
// levels, so a task may read the results of every lower level and of none
// in its own. Each level gets the participants its predicted work (work_of
// summed, in stripped rows) pays for.
void RunByLevel(WorkerPool* pool, uint32_t threads, size_t n,
                const std::function<uint32_t(size_t)>& level_of,
                const std::function<uint64_t(size_t)>& work_of,
                const std::function<void(size_t)>& task) {
  size_t begin = 0;
  while (begin < n) {
    const uint32_t level = level_of(begin);
    uint64_t work = work_of(begin);
    size_t end = begin + 1;
    for (; end < n && level_of(end) == level; ++end) work += work_of(end);
    pool->Run(end - begin, FanOutWorkers(threads, work, end - begin),
              [&](size_t i) { task(begin + i); });
    begin = end;
  }
}

// The arbiter the engine charges: the shared one when attached, else a
// single-engine arbiter holding cache_budget_bytes, so every engine evicts
// by the same policy and lock order.
std::shared_ptr<CacheArbiter> ResolveArbiter(const EngineOptions& options) {
  if (options.cache_arbiter != nullptr) return options.cache_arbiter;
  ArbiterOptions arb;
  arb.budget_bytes = options.cache_budget_bytes;
  return std::make_shared<CacheArbiter>(arb);
}

}  // namespace

EntropyEngine::EntropyEngine(const Relation* r, EngineOptions options)
    : store_(r),
      options_(options),
      relation_uid_(r->uid()),
      synced_epoch_(r->epoch()),
      pool_(options.worker_pool != nullptr ? options.worker_pool
                                           : WorkerPool::Shared()),
      arbiter_(ResolveArbiter(options)),
      persist_(options.persist_store),
      keys_by_count_(kMaxAttrs + 1),
      mass_by_count_(kMaxAttrs + 1, 0) {
  stamp_ = std::make_shared<const EpochPin>(EpochPin{
      store_.SyncedRows(), synced_epoch_.load(std::memory_order_relaxed)});
  // No other thread can reach this engine yet, so registering before the
  // body finishes cannot race a Charge.
  arbiter_->RegisterEngine(
      this, [this](AttrSet attrs) { DropPartitionForArbiter(attrs); });
  if (persist_ != nullptr) {
    fp_ = std::make_unique<FingerprintTracker>(r);
    try {
      WarmStartFromPersist();
    } catch (const std::exception&) {
      // Warm restart is an optimization, never a requirement: on any
      // failure (allocation, I/O) the engine simply starts cold.
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.persist_fallbacks;
    }
  }
}

EntropyEngine::~EntropyEngine() {
  // Discharges this engine's whole footprint in O(its entries) — the fast
  // path behind AnalysisSession::Release on short-lived relations.
  arbiter_->ReleaseEngine(this);
}

void EntropyEngine::CatchUp() {
  if (relation().epoch() == synced_epoch_.load(std::memory_order_acquire)) {
    return;
  }
  // One caller owns the catch-up; everyone else returns immediately and
  // keeps serving the previous stamp (their pinned reads stay valid — the
  // point of the epoch-pinned design). try_lock, never lock: a reader must
  // not block behind a catch-up it does not need.
  std::unique_lock<std::mutex> own(catchup_mu_, std::try_to_lock);
  if (!own.owns_lock()) return;
  CatchUpOwned();
}

EpochPin EntropyEngine::SyncedPin() {
  if (relation().epoch() != synced_epoch_.load(std::memory_order_acquire)) {
    // Blocks behind a catch-up in flight, which may have targeted an
    // epoch before the caller's append: CatchUpOwned rechecks.
    std::lock_guard<std::mutex> own(catchup_mu_);
    CatchUpOwned();
  }
  return Pin();
}

void EntropyEngine::CatchUpOwned() {
  const uint64_t target_epoch = relation().epoch();
  if (target_epoch == synced_epoch_.load(std::memory_order_acquire)) {
    return;  // the previous owner finished this epoch already
  }
  // Epoch FIRST (acquire), THEN the row count: the count read here covers
  // at least every append the epoch load observed. A batch landing between
  // the two loads merely over-syncs; its own epoch bump re-triggers a
  // cheap catch-up that finds everything already extended.
  try {
    RunCatchUp(target_epoch, relation().NumRows());
  } catch (...) {
    // A failure that escapes RunCatchUp (e.g. between claim and publish)
    // leaves the engine consistent-but-colder: claimed entries are out of
    // the cache AND off the arbiter's books (discharged at claim), the
    // stamp and synced epoch are unchanged, so readers keep serving the
    // previous generation and the next query retries the catch-up. Never
    // let it unwind into callers — catch-up is a cache maintenance step,
    // not part of any query's contract.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.catchup_aborts;
  }
}

void EntropyEngine::RunCatchUp(uint64_t target_epoch, uint64_t target_rows) {
  // Runs with catchup_mu_ held and mu_ NOT held. Readers of the old stamp
  // proceed concurrently throughout; the new generation becomes visible
  // atomically at the publish step.
  const uint64_t old_rows =
      std::atomic_load_explicit(&stamp_, std::memory_order_relaxed)->rows;

  // Columns and sketches first: extension publishes fresh RCU views over
  // the grown buffers, never touching bytes an old-pin view can see.
  store_.CatchUpTo(target_rows);

  // --- CLAIM (under mu_) --------------------------------------------------
  // Generational revalidation: extension costs O(mass) per partition, so
  // paying it for entries nothing touched during the entire previous epoch
  // — one-shot chain intermediates from a miner run, say — would turn
  // catch-up into the O(cache) rebuild it exists to avoid. Entries used
  // since the last catch-up stay, AND so do their chain ancestors: a hot
  // entry's next extension is a cheap delta only while its recipe's
  // prefixes survive (a base lookup touches just the LONGEST prefix, so
  // without the closure the shorter ones would go idle, get dropped, and
  // force a full replay of every hot chain each epoch). Everything else is
  // dropped (an always-safe cache decision) and its bytes return to the
  // budget. Survivors are CLAIMED — removed from the visible cache — so the
  // long extension below runs without mu_ while concurrent readers keep
  // resolving (or recomputing) against a consistent map.
  struct Claimed {
    AttrSet set;
    CachedPartition cp;
  };
  std::vector<Claimed> claimed;
  std::vector<AttrSet> discharged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.epoch_catchups;
    std::unordered_map<AttrSet, bool, AttrSetHash> keep;
    keep.reserve(partitions_.size());
    for (const auto& entry : partitions_) {
      if (entry.second.last_used <= last_catchup_tick_) continue;
      if (entry.second.rows != old_rows) continue;
      keep.emplace(entry.first, true);
      AttrSet prefix;
      const std::vector<uint32_t>& chain = entry.second.chain;
      for (size_t j = 0; j + 1 < chain.size(); ++j) {
        prefix.Add(chain[j]);
        auto pit = partitions_.find(prefix);
        if (pit != partitions_.end() && pit->second.rows == old_rows &&
            pit->second.chain.size() == j + 1 &&
            std::equal(pit->second.chain.begin(), pit->second.chain.end(),
                       chain.begin())) {
          keep.emplace(prefix, true);
        }
      }
    }
    std::vector<AttrSet> idle;
    std::vector<AttrSet> keep_keys;
    for (const auto& entry : partitions_) {
      if (keep.find(entry.first) == keep.end()) {
        idle.push_back(entry.first);
      } else {
        keep_keys.push_back(entry.first);
      }
    }
    for (AttrSet key : idle) {
      EvictPartitionLocked(partitions_.find(key));
      discharged.push_back(key);
    }
    claimed.reserve(keep_keys.size());
    for (AttrSet key : keep_keys) {
      auto it = partitions_.find(key);
      Claimed c;
      c.set = key;
      // The partition pointer is COPIED (not moved) so RemovePartitionLocked
      // below can still read its byte size; the bulky recipe vectors move.
      c.cp.partition = it->second.partition;
      c.cp.last_used = it->second.last_used;
      c.cp.epoch = it->second.epoch;
      c.cp.rows = it->second.rows;
      c.cp.last_col_card = it->second.last_col_card;
      c.cp.extended = it->second.extended;
      c.cp.chain = std::move(it->second.chain);
      c.cp.delta = std::move(it->second.delta);
      RemovePartitionLocked(it);
      discharged.push_back(key);
      claimed.push_back(std::move(c));
    }
  }
  if (!discharged.empty()) {
    // Settle outside mu_ (arbiter -> engine is the only permitted lock
    // order). Claimed entries leave the arbiter's books for the duration of
    // the extension and are re-charged at publish — Discharge/Charge rather
    // than Resize, because the arbiter must not pick eviction victims that
    // are not in the visible cache.
    arbiter_->Discharge(this, discharged);
  }

  // --- EXTEND (no locks) ---------------------------------------------------
  // Ascending set size: a chain's proper prefixes are strictly smaller
  // sets, so every ancestor is extended before its descendants need it
  // (tie-break by set value for determinism). Old forms are kept aside for
  // the parent-block correspondence the seeding path walks — but ONLY for
  // entries some child will actually use as a direct parent: pinning every
  // old partition until the end of catch-up would double peak memory and,
  // worse, starve the allocator of the just-freed buffers the next
  // extension would otherwise reuse (measurably slower on large caches).
  std::sort(claimed.begin(), claimed.end(),
            [](const Claimed& a, const Claimed& b) {
              const uint32_t ca = a.set.Count();
              const uint32_t cb = b.set.Count();
              if (ca != cb) return ca < cb;
              return a.set < b.set;
            });
  std::unordered_map<AttrSet, Claimed*, AttrSetHash> by_set;
  by_set.reserve(claimed.size());
  for (Claimed& c : claimed) by_set.emplace(c.set, &c);
  std::unordered_map<AttrSet, std::shared_ptr<const Partition>, AttrSetHash>
      old_parts;
  for (const Claimed& c : claimed) {
    const std::vector<uint32_t>& chain = c.cp.chain;
    if (chain.size() < 2) continue;
    if (!c.cp.delta.run_lengths.empty() &&
        c.cp.delta.run_lengths.size() ==
            c.cp.delta.parent_first_rows.size()) {
      // Scan-free child: its recorded correspondence replaces the old
      // parent entirely, so the parent stays unpinned (and therefore
      // eligible for in-place extension itself).
      continue;
    }
    AttrSet parent;
    for (size_t j = 0; j + 1 < chain.size(); ++j) parent.Add(chain[j]);
    auto pit = by_set.find(parent);
    if (pit != by_set.end() &&
        pit->second->cp.chain.size() + 1 == chain.size() &&
        std::equal(pit->second->cp.chain.begin(),
                   pit->second->cp.chain.end(), chain.begin())) {
      old_parts.emplace(parent, pit->second->cp.partition);
    }
  }
  std::atomic<uint64_t> extended_count{0};
  std::atomic<uint64_t> replayed_count{0};
  std::atomic<uint64_t> dropped_count{0};
  auto extend_entry = [&](Claimed& c) {
    CachedPartition& cp = c.cp;
    const std::vector<uint32_t>& chain = cp.chain;
    AJD_CHECK(!chain.empty());

    // Deepest claimed ancestor whose recorded chain is a strict prefix of
    // this one (set equality alone is not enough: the same AttrSet can
    // have been rebuilt through a different column order after an
    // eviction, and the block correspondence is chain-specific).
    std::shared_ptr<const Partition> parent_new;
    std::shared_ptr<const Partition> parent_old;
    size_t ancestor_len = 0;
    AttrSet prefix_sets[kMaxAttrs];
    AttrSet acc;
    for (size_t j = 0; j + 1 < chain.size(); ++j) {
      acc.Add(chain[j]);
      prefix_sets[j] = acc;  // prefix of length j+1
    }
    for (size_t len = chain.size() - 1; len >= 1; --len) {
      auto pit = by_set.find(prefix_sets[len - 1]);
      if (pit == by_set.end()) continue;
      // An ancestor whose own extension FAILED (degradable catch-up drops
      // it: partition nulled, rows never advanced) must not seed this
      // entry's delta/replay — fall back to a cold replay instead.
      if (pit->second->cp.partition == nullptr ||
          pit->second->cp.rows != target_rows) {
        continue;
      }
      if (pit->second->cp.chain.size() != len ||
          !std::equal(pit->second->cp.chain.begin(),
                      pit->second->cp.chain.end(), chain.begin())) {
        continue;
      }
      parent_new = pit->second->cp.partition;  // extended already (smaller)
      if (len + 1 == chain.size()) {
        // Only a DIRECT parent's old form matters (the delta path walks
        // its block correspondence); deeper ancestors feed the replay
        // path, which reads just the extended form.
        auto oit = old_parts.find(prefix_sets[len - 1]);
        if (oit != old_parts.end()) parent_old = oit->second;
      }
      ancestor_len = len;
      break;
    }

    std::shared_ptr<const Partition> np;
    const Column last_col = store_.ColumnAt(chain.back(), target_rows);
    // Scan-free correspondence from the previous extension (or the build
    // itself — the refinement kernels emit it at build time), if intact.
    const bool meta_ok =
        !cp.delta.run_lengths.empty() &&
        cp.delta.run_lengths.size() == cp.delta.parent_first_rows.size();
    const bool kernel_stable =
        parent_new != nullptr &&
        ChooseRefineKernel(last_col.cardinality,
                           parent_new->NumStrippedRows()) ==
            ChooseRefineKernel(cp.last_col_card,
                               parent_new->NumStrippedRows());
    if (ancestor_len + 1 == chain.size() && kernel_stable &&
        (meta_ok || parent_old != nullptr)) {
      // Direct parent claimed with the same chain and the kernel choice
      // did not move: the O(delta + touched blocks) path — scan-free
      // when the build's or previous extension's metadata survived (steady
      // state), seeding that metadata from the retained old parent
      // otherwise. A sole-owner entry (nothing else aliases it — no
      // concurrent reader holds a reference and it is nobody's retained
      // old parent) extends IN PLACE: the bit-identical prefix before the
      // first affected block is never copied, which is what makes catch-up
      // track the changed region on locality-friendly streams instead of
      // the partition's whole mass. Reader-held entries take the copying
      // path, leaving the old object untouched for its pinned readers, and
      // so does an entry's FIRST extension: in-place extension adopts the
      // chunked layout with ~50% tail slack, which pays only for entries
      // that keep growing, while a lattice built once and extended once
      // (a restart's catch-up, the catch-up after a re-mine) would hold
      // half its bytes again as slack. The copy is exact-sized.
      const PartitionDelta* meta = meta_ok ? &cp.delta : nullptr;
      const Partition* old_parent_ptr = meta_ok ? nullptr : parent_old.get();
      PartitionDelta next;
      if (cp.extended && cp.partition.use_count() == 1) {
        std::const_pointer_cast<Partition>(cp.partition)
            ->ExtendInPlaceBy(old_parent_ptr, *parent_new, last_col,
                              old_rows, meta, &next);
        np = cp.partition;
      } else {
        np = std::make_shared<Partition>(
            cp.partition->ExtendedBy(old_parent_ptr, *parent_new, last_col,
                                     old_rows, meta, &next));
      }
      cp.delta = std::move(next);
      cp.extended = true;
      ++extended_count;
    } else if (chain.size() == 1) {
      if (cp.extended && cp.partition.use_count() == 1) {
        // Sole-owner root: blocks the appended rows touched grow through
        // their chunk slack in place — no full ascending-code rebuild of
        // the untouched blocks. Reader-held (or old-parent-retained) roots
        // and first extensions take the copying merge, leaving the old
        // object untouched.
        std::const_pointer_cast<Partition>(cp.partition)
            ->ExtendOfColumnInPlace(last_col, old_rows);
        np = cp.partition;
      } else {
        np = std::make_shared<Partition>(
            cp.partition->ExtendedOfColumn(last_col, old_rows));
      }
      cp.extended = true;
      ++extended_count;
    } else {
      // Evicted ancestor, divergent chain, or a column whose
      // cardinality crossed its kernel-selection threshold: replay the
      // remaining chain cold from the deepest extended ancestor (bit-
      // identical to the delta path by kernel reproducibility). The LAST
      // refinement step emits the parent->child correspondence at build
      // time, so even a replayed entry's NEXT catch-up is scan-free.
      Partition cur;
      const Partition* base = parent_new.get();
      size_t j = ancestor_len;
      if (base == nullptr) {
        cur = Partition::OfColumn(store_.ColumnAt(chain[0], target_rows));
        base = &cur;
        j = 1;
      }
      PartitionDelta next;
      for (; j < chain.size(); ++j) {
        const Column cj = store_.ColumnAt(chain[j], target_rows);
        cur = base->RefinedBy(cj, RefineKernel::kAuto,
                              j + 1 == chain.size() ? &next : nullptr);
        base = &cur;
      }
      np = std::make_shared<Partition>(std::move(cur));
      cp.delta = std::move(next);
      ++replayed_count;
    }
    cp.partition = std::move(np);
    cp.epoch = target_epoch;
    cp.rows = target_rows;
    cp.last_col_card = last_col.cardinality;
  };
  auto run_one = [&](Claimed& c) {
    try {
      AJD_INJECT_BAD_ALLOC(failpoints::kEngineCatchupExtend);
      extend_entry(c);
    } catch (const std::exception&) {
      // Degradable catch-up: a failed extension (allocation failure,
      // injected fault) drops just this entry. Its bytes were already
      // settled with the arbiter at claim time and publish skips it below,
      // so the books stay consistent and later reads simply recompute it
      // cold — bit-identical by kernel reproducibility. Descendants see
      // the nulled partition through the ancestor guard above and replay
      // cold instead of consuming a failed parent.
      c.cp.partition = nullptr;
      ++dropped_count;
    }
  };
  // Fan the extensions out LEVEL BY LEVEL (ascending set size, the sort
  // above): every ancestor an entry can look up lives in a strictly
  // earlier level (proper prefixes are strictly smaller sets), so the pool
  // barrier between levels guarantees each task reads only fully-extended
  // parents, and entries within a level never read each other. by_set and
  // old_parts are read-only during the fan-out; each task writes only its
  // own entry. Extension is bit-identical to the serial loop by kernel
  // reproducibility (and per-entry work is order-independent), so the
  // published cache — and every value served from it — is unchanged at any
  // thread count. Publish order below stays serial and sorted.
  // The old stripped mass is an entry's predicted work (an upper proxy:
  // delta paths touch less, replays touch chain x mass).
  RunByLevel(
      pool_.get(),
      options_.refine_threads != 0 ? options_.refine_threads
                                   : BatchThreads(options_),
      claimed.size(), [&](size_t i) { return claimed[i].set.Count(); },
      [&](size_t i) -> uint64_t {
        const auto& p = claimed[i].cp.partition;
        return p != nullptr ? p->NumStrippedRows() : 0;
      },
      [&](size_t i) { run_one(claimed[i]); });
  old_parts.clear();

  AJD_INJECT_FAULT(failpoints::kEngineCatchupPublish);

  // --- PUBLISH (under mu_) --------------------------------------------------
  std::vector<AttrSet> swept;
  std::vector<std::pair<AttrSet, size_t>> charges;
  charges.reserve(claimed.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Sweep whatever old-generation state concurrent readers seeded while
    // the extension ran (their inserts carry the old row tag). Entropy
    // values recompute on demand from the extended partitions; H depends
    // only on the grouping, so post-catch-up reads match the cold chain
    // replay bit-for-bit.
    std::vector<AttrSet> stale;
    for (const auto& entry : partitions_) {
      if (entry.second.rows != target_rows) stale.push_back(entry.first);
    }
    for (AttrSet key : stale) {
      EvictPartitionLocked(partitions_.find(key));
      swept.push_back(key);
    }
    for (auto it = entropies_.begin(); it != entropies_.end();) {
      if (it->second.rows != target_rows) {
        it = entropies_.erase(it);
      } else {
        ++it;
      }
    }
    // Reinsert the extended generation (original recency preserved). A key
    // can collide only when the relation bumped its epoch without growing
    // (target row count == old): the resident entry then covers the same
    // rows, so the claimed copy is simply dropped.
    for (Claimed& c : claimed) {
      if (c.cp.partition == nullptr) continue;  // dropped by failed extension
      if (partitions_.find(c.set) != partitions_.end()) continue;
      const size_t bytes = c.cp.partition->MemoryBytes();
      const uint64_t mass = c.cp.partition->NumStrippedRows();
      partitions_.emplace(c.set, std::move(c.cp));
      partition_bytes_ += bytes;
      keys_by_count_[c.set.Count()].push_back({c.set, mass, target_rows});
      mass_by_count_[c.set.Count()] += mass;
      charges.emplace_back(c.set, bytes);
    }
    stats_.partitions_extended += extended_count;
    stats_.partitions_replayed += replayed_count;
    stats_.catchup_dropped += dropped_count;
    last_catchup_tick_ = tick_;
    // The stamp flips INSIDE mu_, atomically with the sweep: a reader that
    // pins the new generation afterwards can never observe (or seed)
    // old-generation cache state, and vice versa.
    std::atomic_store_explicit(
        &stamp_,
        std::shared_ptr<const EpochPin>(std::make_shared<const EpochPin>(
            EpochPin{target_rows, target_epoch})),
        std::memory_order_release);
    synced_epoch_.store(target_epoch, std::memory_order_release);
  }
  if (!swept.empty()) arbiter_->Discharge(this, swept);
  if (!charges.empty()) arbiter_->Charge(this, charges);
}

bool EntropyEngine::CachedPartitionInfo(
    AttrSet attrs, std::vector<uint32_t>* chain,
    std::shared_ptr<const Partition>* partition) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = partitions_.find(attrs);
  if (it == partitions_.end()) return false;
  if (chain != nullptr) *chain = it->second.chain;
  if (partition != nullptr) *partition = it->second.partition;
  return true;
}

double EntropyEngine::Entropy(AttrSet attrs) {
  CatchUp();
  return EntropyAt(attrs, Pin());
}

EpochPin EntropyEngine::Pin() const {
  return *std::atomic_load_explicit(&stamp_, std::memory_order_acquire);
}

double EntropyEngine::EntropyAt(AttrSet attrs, const EpochPin& pin) {
  AJD_CHECK(attrs.IsSubsetOf(relation().schema().AllAttrs()));
  if (attrs.Empty() || pin.rows == 0) return 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    auto it = entropies_.find(attrs);
    if (it != entropies_.end() && it->second.rows == pin.rows) {
      ++stats_.hits;
      if (it->second.from_disk) {
        ++stats_.persist_hits;
        it->second.from_disk = false;
      }
      return it->second.h;
    }
  }
  return ComputeEntropy(attrs, pin);
}

std::shared_ptr<const Partition> EntropyEngine::PartitionAt(
    AttrSet attrs, const EpochPin& pin) {
  AJD_CHECK(!attrs.Empty());
  AJD_CHECK(attrs.IsSubsetOf(relation().schema().AllAttrs()));
  if (pin.rows == 0) return std::make_shared<const Partition>();
  std::shared_ptr<const Partition> p;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = partitions_.find(attrs);
    if (it != partitions_.end() && it->second.rows == pin.rows) {
      it->second.last_used = ++tick_;
      p = it->second.partition;
    }
  }
  if (p != nullptr) {
    arbiter_->Touch(this, attrs);
    return p;
  }
  // The compute hands back the partition it built itself: a
  // cache lookup afterwards could find it already evicted by the arbiter.
  ComputeEntropy(attrs, pin, /*materialize_final=*/true, &p);
  AJD_CHECK(p != nullptr);
  return p;
}

double EntropyEngine::ComputeEntropy(
    AttrSet attrs, const EpochPin& pin, bool materialize_final,
    std::shared_ptr<const Partition>* partition_out) {
  AJD_CHECK(materialize_final || partition_out == nullptr);
  // The PINNED row count, not the live one: every column view, sketch, and
  // cached base consumed below is frozen at pin.rows, so the value is the
  // cold answer over exactly that prefix no matter how many appends land
  // while this computation runs.
  const uint64_t n = pin.rows;
  AJD_INJECT_BAD_ALLOC(failpoints::kEngineComputePartition);

  // Every attribute over a duplicate-free prefix groups each row alone, so
  // H = ln n: the refinement chain through every column would only confirm
  // it. The value comes from an empty partition's EntropyNats, where every
  // cold path ends, so it equals EntropyOf bit for bit. No partition is
  // cached: an empty entry would carry a chain through every column, and
  // the next catch-up would replay that chain cold.
  if (attrs == relation().schema().AllAttrs() &&
      n <= relation().DistinctPrefixRows()) {
    const double h = Partition().EntropyNats(n);
    if (partition_out != nullptr) {
      *partition_out = std::make_shared<const Partition>();
    }
    std::lock_guard<std::mutex> lock(mu_);
    CacheEntropyLocked(attrs, h, n);
    return h;
  }

  // Disk tier first (persist/persistent_store.h): a value persisted under
  // the exact key — same content fingerprint, same set, same row count —
  // serves a plain miss for the cost of a hash lookup. A caller that needs
  // the partition computes it below.
  if (persist_ != nullptr && !materialize_final) {
    double h_disk;
    if (TryServeFromDisk(attrs, pin, &h_disk)) return h_disk;
  }

  // Best cached base under the refinement cost model: each remaining step
  // scans at most the base's stripped rows, so refining base T costs about
  // NumStrippedRows(T) * |attrs \ T|, against N * |attrs| for a build from
  // a raw column. This prefers the largest cached subset when masses are
  // comparable, but lets a sharply refined smaller subset (e.g. a cached
  // near-key whose stripped partition is tiny) win over a barely refined
  // big one. Levels are scanned descending, so on a cost tie the first
  // (highest) level wins and within a level the smaller mask does — the
  // choice is deterministic given the cache contents.
  std::shared_ptr<const Partition> base;
  AttrSet base_set;
  // The base's recorded build recipe; every partition cached below extends
  // it, so catch-up can replay (or delta-extend) the exact chain later.
  std::vector<uint32_t> cur_chain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    double best_cost = static_cast<double>(n) *
                       std::max<uint32_t>(attrs.Count(), 1);  // from scratch
    uint32_t best_level = 0;
    for (uint32_t level = attrs.Count(); level >= 1 && best_cost > 0.0;
         --level) {
      // A zero-cost base (an all-singleton subset partition: H is already
      // ln N) cannot be beaten; stop scanning the lattice the moment one
      // appears, or misses over a cache full of collapsed partitions turn
      // the scan itself into the bottleneck.
      for (const KeyEntry& entry : keys_by_count_[level]) {
        if (entry.rows != pin.rows) continue;  // different generation
        if (!entry.set.IsSubsetOf(attrs)) continue;
        const uint32_t steps = attrs.Count() - level;
        const double cost = static_cast<double>(entry.mass) *
                            std::max<uint32_t>(steps, 1);
        const bool better =
            cost < best_cost ||
            (cost == best_cost &&
             (best_level == 0 ||
              (level == best_level && entry.set < base_set)));
        if (better) {
          best_cost = cost;
          best_level = level;
          base_set = entry.set;
          if (best_cost == 0.0) break;
        }
      }
    }
    if (best_level != 0) {
      auto it = partitions_.find(base_set);
      base = it->second.partition;
      cur_chain = it->second.chain;
      it->second.last_used = ++tick_;
      ++stats_.base_reuses;
    }
  }
  if (base != nullptr) {
    // Recency signal for the global LRU; outside mu_ per the lock order.
    arbiter_->Touch(this, base_set);
  }

  // Refine by the missing attributes in order of estimated block-splitting
  // power: the sampled distinct sketch's show-up rate at the current
  // stripped mass (NOT the global cardinality — on skewed data a wide but
  // head-heavy column splits far worse than its cardinality suggests).
  // Early on this is roughly descending cardinality (wide columns shatter
  // blocks fastest); once the mass has collapsed, every saturated column
  // splits equally well and the cheapest one — smallest counting-scratch
  // footprint — goes first. The remaining columns are re-ranked after every
  // step as the mass shrinks.
  std::vector<uint32_t> missing = attrs.Minus(base_set).ToIndices();

  uint64_t builds = 0;
  uint64_t refinements = 0;
  struct FreshEntry {
    AttrSet set;
    std::shared_ptr<const Partition> partition;
    std::vector<uint32_t> chain;
    uint32_t last_col_card = 0;
    /// Build-time parent->child correspondence (empty for roots and the
    /// all-singleton shortcut): makes the entry's FIRST epoch catch-up
    /// scan-free.
    PartitionDelta delta;
  };
  std::vector<FreshEntry> fresh;
  std::shared_ptr<const Partition> cur = std::move(base);
  AttrSet cur_set = base_set;
  double h = 0.0;
  bool have_h = false;
  size_t i = 0;
  while (i < missing.size()) {
    const uint64_t mass = cur == nullptr ? n : cur->NumStrippedRows();
    // Order the remaining columns: max estimated splitting power, narrowest
    // column then index as deterministic tie-breaks (the sketch is itself
    // deterministic, so serial and threaded runs order identically).
    struct ColRank {
      double power;
      uint32_t cardinality;
      uint32_t attr;
    };
    ColRank ranks[kMaxAttrs];
    const size_t tail = missing.size() - i;
    for (size_t j = 0; j < tail; ++j) {
      const uint32_t a = missing[i + j];
      const Column col = store_.ColumnAt(a, pin.rows);
      // Quantized to whole distinct values: sampling noise below one value
      // must not reorder columns on unskewed data, where every column ties
      // and the cardinality/index tie-breaks keep the old deterministic
      // order. Genuine skew shifts the estimate by many values and wins.
      const double p = std::floor(std::min(
          store_.SketchAt(a, pin.rows)
              ->EstimateDistinct(mass, col.cardinality),
          static_cast<double>(mass)));
      ranks[j] = {p, col.cardinality, a};
    }
    std::sort(ranks, ranks + tail, [](const ColRank& x, const ColRank& y) {
      if (x.power != y.power) return x.power > y.power;
      if (x.cardinality != y.cardinality) return x.cardinality < y.cardinality;
      return x.attr < y.attr;
    });
    for (size_t j = 0; j < tail; ++j) missing[i + j] = ranks[j].attr;

    const uint32_t a = missing[i];
    const Column col = store_.ColumnAt(a, pin.rows);
    PartitionDelta step_delta;
    if (cur == nullptr) {
      cur = std::make_shared<Partition>(Partition::OfColumn(col));
      ++builds;
    } else if (!materialize_final && i + 1 == missing.size()) {
      // Last step: only H is needed, so run the count-only pass and skip
      // materializing the final partition. If a later query wants it as a
      // base, it refines from the cached prefix at one step's cost.
      h = cur->RefinedEntropySharded(col, n, RefineKernel::kAuto,
                                     RefineThreadsFor(cur->NumStrippedRows()),
                                     pool_.get());
      have_h = true;
      ++refinements;
      break;
    } else {
      // The three-argument form captures the parent->child correspondence
      // at build time, making this entry's first catch-up scan-free.
      cur = std::make_shared<Partition>(cur->RefinedBySharded(
          col, RefineKernel::kAuto, RefineThreadsFor(cur->NumStrippedRows()),
          pool_.get(), &step_delta));
      ++refinements;
    }
    cur_set.Add(a);
    cur_chain.push_back(a);
    fresh.push_back({cur_set, cur, cur_chain, col.cardinality,
                     std::move(step_delta)});
    ++i;
    // All rows already unique: every superset partition is all-singletons
    // too, so H(attrs) = ln N and the remaining refinements are no-ops.
    if (cur->NumStrippedRows() == 0) {
      if (cur_set != attrs) {
        // The full set's stripped partition is empty too; cache a fresh
        // empty instance rather than aliasing cur, so the byte accounting
        // doesn't count one allocation twice. Its recipe extends the
        // current chain by the never-applied columns (any order induces
        // the same empty grouping NOW; the recorded order pins the replay
        // after future appends un-singleton it).
        std::vector<uint32_t> rest_chain = cur_chain;
        for (size_t j = i; j < missing.size(); ++j) {
          rest_chain.push_back(missing[j]);
        }
        const uint32_t rest_card =
            store_.ColumnAt(rest_chain.back(), pin.rows).cardinality;
        fresh.push_back({attrs, std::make_shared<Partition>(),
                         std::move(rest_chain), rest_card, PartitionDelta{}});
      }
      break;
    }
  }
  if (!have_h) {
    AJD_CHECK(cur != nullptr);
    h = cur->EntropyNats(n);
  }
  // With materialize_final every step ran, so cur groups exactly like
  // attrs (the all-singleton shortcut stops early on an equally empty
  // partition).
  if (partition_out != nullptr) *partition_out = cur;

  std::vector<std::pair<AttrSet, size_t>> charged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.partition_builds += builds;
    stats_.refinements += refinements;
    CacheEntropyLocked(attrs, h, pin.rows);
    for (auto& entry : fresh) {
      const AttrSet set = entry.set;
      const size_t bytes = InsertPartitionLocked(
          set, std::move(entry.partition), std::move(entry.chain),
          entry.last_col_card, pin.rows, std::move(entry.delta));
      if (bytes > 0) charged.emplace_back(set, bytes);
    }
  }
  if (!charged.empty()) {
    // Charge outside mu_: the arbiter may evict — from this engine or any
    // other on the same budget — and its evict callbacks re-take engine
    // mutexes (arbiter -> engine order only).
    arbiter_->Charge(this, charged);
  }
  return h;
}

void EntropyEngine::CacheEntropyLocked(AttrSet attrs, double h,
                                       uint64_t rows) {
  // Only while the pin is still current: a superseded pin's value would be
  // invisible to every future lookup (they filter by row tag) yet sit in
  // the map until a sweep that may never come. InsertPartitionLocked
  // applies the same rule to the partitions.
  if (rows ==
      std::atomic_load_explicit(&stamp_, std::memory_order_relaxed)->rows) {
    entropies_[attrs] = CachedEntropy{h, rows};
  }
}

size_t EntropyEngine::InsertPartitionLocked(AttrSet attrs,
                                            std::shared_ptr<const Partition> p,
                                            std::vector<uint32_t> chain,
                                            uint32_t last_col_card,
                                            uint64_t rows,
                                            PartitionDelta delta) {
  auto it = partitions_.find(attrs);
  if (it != partitions_.end()) {
    // Never replace: the resident entry may belong to the CURRENT
    // generation while this insert races in from a reader at a superseded
    // pin. Touch it for recency and drop the new copy.
    it->second.last_used = ++tick_;
    return 0;
  }
  // A stale-pin compute must not seed the cache either: an entry tagged
  // behind the current stamp would be invisible to every future reader yet
  // hold budget until a catch-up sweep that never comes if appends stop.
  if (rows !=
      std::atomic_load_explicit(&stamp_, std::memory_order_relaxed)->rows) {
    return 0;
  }
  const size_t inserted_bytes = p->MemoryBytes();
  const uint64_t mass = p->NumStrippedRows();
  CachedPartition cp;
  cp.partition = std::move(p);
  cp.chain = std::move(chain);
  cp.last_col_card = last_col_card;
  cp.epoch = synced_epoch_.load(std::memory_order_relaxed);
  cp.rows = rows;
  cp.delta = std::move(delta);
  cp.last_used = ++tick_;
  partitions_.emplace(attrs, std::move(cp));
  partition_bytes_ += inserted_bytes;
  keys_by_count_[attrs.Count()].push_back({attrs, mass, rows});
  mass_by_count_[attrs.Count()] += mass;
  return inserted_bytes;
}

void EntropyEngine::RemovePartitionLocked(
    std::unordered_map<AttrSet, CachedPartition, AttrSetHash>::iterator it) {
  const AttrSet attrs = it->first;
  partition_bytes_ -= it->second.partition->MemoryBytes();
  std::vector<KeyEntry>& bucket = keys_by_count_[attrs.Count()];
  auto pos =
      std::find_if(bucket.begin(), bucket.end(),
                   [&](const KeyEntry& e) { return e.set == attrs; });
  AJD_CHECK(pos != bucket.end());
  mass_by_count_[attrs.Count()] -= pos->mass;
  *pos = bucket.back();
  bucket.pop_back();
  partitions_.erase(it);
}

void EntropyEngine::EvictPartitionLocked(
    std::unordered_map<AttrSet, CachedPartition, AttrSetHash>::iterator it) {
  RemovePartitionLocked(it);
  ++stats_.evictions;
}

void EntropyEngine::DropPartitionForArbiter(AttrSet attrs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = partitions_.find(attrs);
  if (it == partitions_.end()) return;
  EvictPartitionLocked(it);
}

uint32_t EntropyEngine::RefineThreadsFor(uint64_t mass) const {
  // One refinement is `mass` row-steps of work, split into at most one
  // shard per kShardedRefineShardMass rows (PlanShardCount in the kernels
  // clamps identically).
  return FanOutWorkers(options_.refine_threads != 0 ? options_.refine_threads
                                                    : BatchThreads(options_),
                       mass, mass / kShardedRefineShardMass);
}

uint64_t EntropyEngine::FanOutWorkLocked(const AttrSet* sets, size_t n,
                                         uint64_t rows) const {
  // A miss of s attributes is priced the way the cost model prices its
  // plan, the base's stripped mass times the steps from it, plus its
  // fixed work outside the kernel. The base is taken to be a typical
  // partition of the deepest cached level below s (its mean mass), or a
  // raw column (N rows, s steps) when none is cached. From that comes off
  // the lattice scan the miss pays to choose its base: one look at every
  // cached key at or below its level, under mu_. That part never runs in
  // parallel, and with W participants each scan also stalls the W - 1
  // others queued on mu_, so it is weighted W times (a cache of 50-150k
  // keys then keeps a batch of small misses inline).
  const uint64_t scan_weight = BatchThreads(options_);
  uint64_t price[kMaxAttrs + 1];
  uint64_t scan[kMaxAttrs + 1];
  scan[0] = 0;
  uint32_t deepest = 0;  // deepest level below s with cached partitions
  for (uint32_t level = 1; level <= kMaxAttrs; ++level) {
    price[level] =
        kMissFixedWork +
        (deepest == 0 ? rows * level
                      : mass_by_count_[deepest] /
                            keys_by_count_[deepest].size() * (level - deepest));
    scan[level] = scan[level - 1] + keys_by_count_[level].size();
    if (!keys_by_count_[level].empty()) deepest = level;
  }
  uint64_t work = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t level = sets[i].Count();
    const uint64_t stall = scan_weight * scan[level];
    if (price[level] > stall) work += price[level] - stall;
  }
  return work;
}

std::vector<AttrSet> EntropyEngine::FanOutMisses(const AttrSet* sets,
                                                size_t n, const EpochPin& pin,
                                                bool materialize_final) {
  std::vector<AttrSet> inline_sets;
  if (BatchThreads(options_) <= 1) {
    for (size_t i = 0; i < n; ++i) {
      if (!sets[i].Empty()) inline_sets.push_back(sets[i]);
    }
    return inline_sets;
  }
  // Level order, largest sets first, with a barrier between levels. A
  // large miss's refinement chain caches its prefixes on the way up, and
  // the smaller batch members then find those partitions cached, zero or
  // one step away; concurrent misses of one level cannot serve each other
  // as bases anyway. Smallest-first would compute every small set
  // count-only and rebuild it later as an intermediate of a larger one.
  std::vector<std::vector<AttrSet>> by_level(kMaxAttrs + 1);
  for (size_t i = 0; i < n; ++i) {
    if (!sets[i].Empty()) by_level[sets[i].Count()].push_back(sets[i]);
  }
  for (uint32_t level = kMaxAttrs; level >= 1; --level) {
    std::vector<AttrSet>& todo = by_level[level];
    if (todo.empty()) continue;
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    // Probed and priced in one hold of mu_. The price is taken per level
    // because the lattice scans grow with the cache the batch fills.
    std::vector<AttrSet> misses;
    uint32_t workers = 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (AttrSet s : todo) {
        const bool cached = materialize_final
                                ? HasPartitionLocked(s, pin.rows)
                                : HasEntropyLocked(s, pin.rows);
        if (!cached) misses.push_back(s);
      }
      workers = FanOutWorkers(
          BatchThreads(options_),
          FanOutWorkLocked(misses.data(), misses.size(), pin.rows),
          misses.size());
    }
    if (workers > 1) {
      pool_->Run(misses.size(), workers, [&](size_t i) {
        AJD_INJECT_FAULT(failpoints::kEngineBatchTask);
        ComputeEntropy(misses[i], pin, materialize_final);
      });
    } else {
      inline_sets.insert(inline_sets.end(), misses.begin(), misses.end());
    }
  }
  return inline_sets;
}

bool EntropyEngine::HasEntropyLocked(AttrSet attrs, uint64_t rows) const {
  auto it = entropies_.find(attrs);
  return it != entropies_.end() && it->second.rows == rows;
}

bool EntropyEngine::HasPartitionLocked(AttrSet attrs, uint64_t rows) const {
  auto it = partitions_.find(attrs);
  return it != partitions_.end() && it->second.rows == rows;
}

void EntropyEngine::BatchEntropy(const AttrSet* sets, size_t n, double* out) {
  CatchUp();
  // ONE pin for the whole batch: every term is evaluated over the same
  // pinned prefix, so the batch is internally consistent even if appends
  // land mid-flight. The misses that pay for the pool are computed there
  // first; the reads below compute the rest on demand, in order.
  const EpochPin pin = Pin();
  if (pin.rows > 0) FanOutMisses(sets, n, pin, /*materialize_final=*/false);
  for (size_t i = 0; i < n; ++i) out[i] = EntropyAt(sets[i], pin);
}

std::vector<double> EntropyEngine::BatchEntropy(
    const std::vector<AttrSet>& sets) {
  std::vector<double> out(sets.size());
  BatchEntropy(sets.data(), sets.size(), out.data());
  return out;
}

void EntropyEngine::WarmEntropies(const std::vector<AttrSet>& sets) {
  CatchUp();
  const EpochPin pin = Pin();
  if (pin.rows == 0) return;
  // What the pool cannot pay for is dropped: the caller's own reads then
  // compute those misses on demand, in its own order, exactly as a serial
  // engine does.
  FanOutMisses(sets.data(), sets.size(), pin, /*materialize_final=*/false);
}

void EntropyEngine::PrewarmSubsets(const std::vector<AttrSet>& sets) {
  CatchUp();
  const EpochPin pin = Pin();
  if (pin.rows == 0) return;
  for (AttrSet s : sets) {
    AJD_CHECK(s.IsSubsetOf(relation().schema().AllAttrs()));
  }
  // The rest runs inline in mask order, so the fill order (and with it
  // every cache decision) is independent of the caller's enumeration.
  std::vector<AttrSet> need;
  {
    const std::vector<AttrSet> rest = FanOutMisses(
        sets.data(), sets.size(), pin, /*materialize_final=*/true);
    std::lock_guard<std::mutex> lock(mu_);
    for (AttrSet s : rest) {
      if (!HasPartitionLocked(s, pin.rows)) need.push_back(s);
    }
  }
  std::sort(need.begin(), need.end());
  need.erase(std::unique(need.begin(), need.end()), need.end());
  for (AttrSet s : need) ComputeEntropy(s, pin, /*materialize_final=*/true);
}

double EntropyEngine::ConditionalEntropy(AttrSet a, AttrSet c) {
  return Entropy(a.Union(c)) - Entropy(c);
}

double EntropyEngine::ConditionalMutualInformation(AttrSet a, AttrSet b,
                                                   AttrSet c) {
  double h_ac = Entropy(a.Union(c));
  double h_bc = Entropy(b.Union(c));
  double h_abc = Entropy(a.Union(b).Union(c));
  double h_c = Entropy(c);
  double cmi = h_ac + h_bc - h_abc - h_c;
  // Clamp tiny negative values from floating-point cancellation.
  return cmi < 0.0 && cmi > -1e-9 ? 0.0 : cmi;
}

double EntropyEngine::MutualInformation(AttrSet a, AttrSet b) {
  return ConditionalMutualInformation(a, b, AttrSet());
}

uint64_t EntropyEngine::FingerprintFor(uint64_t rows) {
  std::lock_guard<std::mutex> lock(fp_mu_);
  return fp_->At(rows);
}

bool EntropyEngine::TryServeFromDisk(AttrSet attrs, const EpochPin& pin,
                                     double* h_out) {
  {
    // A pin behind the tracker is a superseded generation mid-catch-up:
    // probing it would pay a full O(pin.rows) fingerprint recompute per
    // miss (the tracker only moves forward). Stale pins are transient —
    // they just compute cold.
    std::lock_guard<std::mutex> lock(fp_mu_);
    if (pin.rows < fp_->rows()) return false;
  }
  // The stored H is CRC-verified by the journal, and the fingerprint key
  // pins the exact relation content it was computed over.
  const PersistKey key{FingerprintFor(pin.rows), attrs, pin.rows};
  double h;
  if (!persist_->LookupExact(key, &h)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.persist_hits;
  disk_keys_.insert(key);
  CacheEntropyLocked(attrs, h, pin.rows);
  *h_out = h;
  return true;
}

void EntropyEngine::WarmStartFromPersist() {
  const uint64_t now = store_.SyncedRows();
  const std::vector<PersistedEntryMeta> all = persist_->AllEntries();

  // Fingerprints of every persisted prefix length, computed ascending so
  // the tracker extends incrementally — one O(now) hashing pass total.
  std::vector<uint64_t> row_counts;
  for (const PersistedEntryMeta& e : all) {
    if (e.rows > 0 && e.rows <= now) row_counts.push_back(e.rows);
  }
  std::sort(row_counts.begin(), row_counts.end());
  row_counts.erase(std::unique(row_counts.begin(), row_counts.end()),
                   row_counts.end());
  std::unordered_map<uint64_t, uint64_t> fp_at;
  for (uint64_t m : row_counts) fp_at.emplace(m, FingerprintFor(m));
  // Leave the tracker at the current row count: the miss-path lookup
  // reads it from here on.
  (void)FingerprintFor(now);

  // An entry is this relation's when its fingerprint matches OUR relation
  // at its recorded row count (entries of other relations sharing the
  // store simply never match). Every match is a generation the next
  // PersistCache supersedes; only those at `now` are current values.
  std::lock_guard<std::mutex> lock(mu_);
  for (const PersistedEntryMeta& e : all) {
    auto fit = fp_at.find(e.rows);
    if (fit == fp_at.end() || fit->second != e.fingerprint) continue;
    disk_keys_.insert(e);
    if (e.rows != now) continue;
    // Counted in persist_hits when a query first reads it, not here: a
    // value the next catch-up sweeps unread served nothing.
    entropies_[e.attrs] = CachedEntropy{e.entropy, now, /*from_disk=*/true};
  }
}

Status EntropyEngine::PersistCache() {
  if (persist_ == nullptr) {
    return Status::FailedPrecondition(
        "no persistent store attached (EngineOptions::persist_store)");
  }
  CatchUp();
  std::vector<PersistedEntryMeta> batch;
  uint64_t rows_now = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows_now =
        std::atomic_load_explicit(&stamp_, std::memory_order_relaxed)->rows;
    for (const auto& kv : entropies_) {
      if (kv.second.rows != rows_now) continue;
      PersistedEntryMeta e;
      e.attrs = kv.first;
      e.rows = rows_now;
      e.entropy = kv.second.h;
      batch.push_back(e);
    }
  }
  if (rows_now == 0 || batch.empty()) return Status::OK();
  const uint64_t fp = FingerprintFor(rows_now);
  for (PersistedEntryMeta& e : batch) e.fingerprint = fp;
  Status s = persist_->Put(batch);
  if (!s.ok()) return s;
  // The generations this one supersedes: every older key this engine
  // matched or wrote, so the store keeps one generation per relation.
  std::vector<PersistKey> superseded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    disk_keys_.insert(batch.begin(), batch.end());
    for (const PersistKey& k : disk_keys_) {
      if (k.rows < rows_now) superseded.push_back(k);
    }
  }
  s = persist_->Erase(superseded);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> lock(mu_);
  for (const PersistKey& k : superseded) disk_keys_.erase(k);
  return Status::OK();
}

size_t EntropyEngine::CacheSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entropies_.size();
}

size_t EntropyEngine::PartitionCacheSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_.size();
}

size_t EntropyEngine::PartitionBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partition_bytes_;
}

EngineStats EntropyEngine::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ajd
