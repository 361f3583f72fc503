#include "engine/entropy_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "engine/cache_arbiter.h"
#include "engine/refine_kernels.h"
#include "engine/worker_pool.h"
#include "persist/persistent_store.h"
#include "relation/fingerprint.h"
#include "relation/row_hash.h"
#include "util/failpoint.h"

namespace ajd {

EntropyEngine::EntropyEngine(const Relation* r, EngineOptions options)
    : store_(r),
      options_(options),
      relation_uid_(r->uid()),
      synced_epoch_(r->epoch()),
      pool_(options.worker_pool != nullptr ? options.worker_pool
                                           : WorkerPool::Shared()),
      arbiter_(options.cache_arbiter),
      persist_(options.persist_store),
      keys_by_count_(kMaxAttrs + 1) {
  stamp_ = std::make_shared<const EpochPin>(EpochPin{
      store_.SyncedRows(), synced_epoch_.load(std::memory_order_relaxed)});
  if (arbiter_ != nullptr) {
    // No other thread can reach this engine yet, so registering before the
    // body finishes cannot race a Charge.
    arbiter_->RegisterEngine(
        this, [this](AttrSet attrs) { DropPartitionForArbiter(attrs); });
  }
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
  if (arbiter_ != nullptr) {
    // Discharges this engine's whole footprint in O(its entries) — the
    // fast path behind AnalysisSession::Release on short-lived relations.
    arbiter_->ReleaseEngine(this);
  }
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
  // The superseded generation's fingerprint, captured while the tracker
  // still sits at old_rows (one cached read); the publish-down step below
  // erases the disk entries it supersedes under this key.
  const bool persist_down = persist_ != nullptr && options_.persist_on_catchup;
  const uint64_t fp_old = persist_down ? FingerprintFor(old_rows) : 0;

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
      // Idle entries still carry the current generation's row tag; demote
      // them to the disk tier rather than discarding the work outright.
      EvictPartitionLocked(partitions_.find(key), /*allow_spill=*/true);
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
      c.cp.chain = std::move(it->second.chain);
      c.cp.delta = std::move(it->second.delta);
      RemovePartitionLocked(it);
      discharged.push_back(key);
      claimed.push_back(std::move(c));
    }
  }
  if (arbiter_ != nullptr && !discharged.empty()) {
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
      // path, leaving the old object untouched for its pinned readers.
      const PartitionDelta* meta = meta_ok ? &cp.delta : nullptr;
      const Partition* old_parent_ptr = meta_ok ? nullptr : parent_old.get();
      PartitionDelta next;
      if (cp.partition.use_count() == 1) {
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
      ++extended_count;
    } else if (chain.size() == 1) {
      if (cp.partition.use_count() == 1) {
        // Sole-owner root: blocks the appended rows touched grow through
        // their chunk slack in place — no full ascending-code rebuild of
        // the untouched blocks. Reader-held (or old-parent-retained) roots
        // take the copying merge, leaving the old object untouched.
        std::const_pointer_cast<Partition>(cp.partition)
            ->ExtendOfColumnInPlace(last_col, old_rows);
        np = cp.partition;
      } else {
        np = std::make_shared<Partition>(
            cp.partition->ExtendedOfColumn(last_col, old_rows));
      }
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
  const uint32_t catchup_threads =
      options_.refine_threads != 0 ? options_.refine_threads
      : options_.num_threads != 0
          ? options_.num_threads
          : std::max(1u, std::thread::hardware_concurrency());
  size_t lvl_begin = 0;
  while (lvl_begin < claimed.size()) {
    const uint32_t level = claimed[lvl_begin].set.Count();
    size_t lvl_end = lvl_begin + 1;
    while (lvl_end < claimed.size() &&
           claimed[lvl_end].set.Count() == level) {
      ++lvl_end;
    }
    const size_t lvl_n = lvl_end - lvl_begin;
    const uint32_t workers =
        static_cast<uint32_t>(std::min<size_t>(catchup_threads, lvl_n));
    // Work floor, mirroring RefineThreadsFor's mass gating: when the thread
    // count is INHERITED (refine_threads == 0), a level of tiny extensions
    // runs serially — the pool dispatch costs more than the extensions
    // themselves. The old stripped mass is an upper proxy for per-entry
    // extension work (delta paths touch less, replays touch chain × mass).
    // An explicit refine_threads bypasses the floor: the caller asked for
    // that fan-out, and the threaded catch-up soak relies on this to
    // exercise the fan-out under TSan at toy sizes.
    bool below_floor = false;
    if (options_.refine_threads == 0) {
      uint64_t lvl_mass = 0;
      for (size_t i = lvl_begin;
           i < lvl_end && lvl_mass < kShardedRefineMinMass; ++i) {
        if (claimed[i].cp.partition != nullptr) {
          lvl_mass += claimed[i].cp.partition->NumStrippedRows();
        }
      }
      below_floor = lvl_mass < kShardedRefineMinMass;
    }
    if (workers <= 1 || pool_ == nullptr || below_floor) {
      for (size_t i = lvl_begin; i < lvl_end; ++i) run_one(claimed[i]);
    } else {
      pool_->Run(lvl_n, workers,
                 [&](size_t i) { run_one(claimed[lvl_begin + i]); });
    }
    lvl_begin = lvl_end;
  }
  old_parts.clear();

  AJD_INJECT_FAULT(failpoints::kEngineCatchupPublish);

  // --- PUBLISH (under mu_) --------------------------------------------------
  std::vector<AttrSet> swept;
  std::vector<std::pair<AttrSet, size_t>> charges;
  charges.reserve(claimed.size());
  /// Extended entries to publish DOWN to the disk tier after the in-memory
  /// publish (captured under mu_, written outside it; the partition
  /// pointers are immutable shared state, so the writes race nothing).
  struct DownEntry {
    AttrSet set;
    std::shared_ptr<const Partition> partition;
    std::vector<uint32_t> chain;
    uint32_t last_col_card = 0;
  };
  std::vector<DownEntry> down;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Sweep whatever old-generation state concurrent readers seeded while
    // the extension ran (their inserts carry the old row tag). Entropy
    // values recompute on demand from the extended partitions via the same
    // XLogX-table accumulation the cold kernels use, so post-catch-up reads
    // match the cold chain replay bit-for-bit.
    std::vector<AttrSet> stale;
    for (const auto& entry : partitions_) {
      if (entry.second.rows != target_rows) stale.push_back(entry.first);
    }
    for (AttrSet key : stale) {
      // Never spill a stale-generation entry: its row tag is superseded
      // and the extended form is being published right now.
      EvictPartitionLocked(partitions_.find(key), /*allow_spill=*/false);
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
      if (persist_down) {
        down.push_back(
            {c.set, c.cp.partition, c.cp.chain, c.cp.last_col_card});
      }
      partitions_.emplace(c.set, std::move(c.cp));
      partition_bytes_ += bytes;
      keys_by_count_[c.set.Count()].push_back({c.set, mass, target_rows});
      charges.emplace_back(c.set, bytes);
    }
    stats_.partitions_extended += extended_count;
    stats_.partitions_replayed += replayed_count;
    stats_.catchup_dropped += dropped_count;
    if (arbiter_ == nullptr) EvictToPrivateBudgetLocked(AttrSet());
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
  if (arbiter_ != nullptr) {
    if (!swept.empty()) arbiter_->Discharge(this, swept);
    if (!charges.empty()) arbiter_->Charge(this, charges);
  }

  // Publish DOWN: the disk tier follows the in-memory cache to the new
  // generation, so a restart right now warm-starts at target_rows instead
  // of the previous epoch's prefix. Each write supersedes that entry's
  // old-generation record, which is erased under the old fingerprint.
  // Best effort throughout — a full disk degrades the tier, never the
  // published generation.
  if (persist_down && !down.empty()) {
    const uint64_t fp_new = FingerprintFor(target_rows);
    uint64_t spilled = 0;
    for (const DownEntry& d : down) {
      PersistedEntryMeta meta;
      meta.fingerprint = fp_new;
      meta.attrs = d.set;
      meta.rows = target_rows;
      meta.chain = d.chain;
      meta.last_col_card = d.last_col_card;
      PartitionPayload payload;
      d.partition->FlattenStripped(&payload.rows, &payload.offsets);
      if (persist_->Put(meta, &payload).ok()) ++spilled;
      if (target_rows != old_rows) {
        (void)persist_->Erase(fp_old, d.set, old_rows);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    stats_.persist_spills += spilled;
  }
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
      return it->second.h;
    }
  }
  return ComputeEntropy(attrs, pin);
}

double EntropyEngine::ComputeEntropy(AttrSet attrs, const EpochPin& pin,
                                     bool materialize_final) {
  // The PINNED row count, not the live one: every column view, sketch, and
  // cached base consumed below is frozen at pin.rows, so the value is the
  // cold answer over exactly that prefix no matter how many appends land
  // while this computation runs.
  const uint64_t n = pin.rows;
  AJD_INJECT_BAD_ALLOC(failpoints::kEngineComputePartition);

  // Disk tier first (persist/persistent_store.h): an exact-key persisted
  // entry — same content fingerprint, same set, same row count — serves the
  // miss for the cost of a reload instead of a refinement chain. Any
  // lookup, load, or validation failure falls through to the cold path
  // below; a bad disk entry can cost time, never change an answer.
  if (persist_ != nullptr) {
    double h_disk;
    if (TryServeFromDisk(attrs, pin, materialize_final, &h_disk)) {
      return h_disk;
    }
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
  if (arbiter_ != nullptr && base != nullptr) {
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

  std::vector<std::pair<AttrSet, size_t>> charged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.partition_builds += builds;
    stats_.refinements += refinements;
    // Cache the value only while the pin is still current: a superseded
    // pin's value would be invisible to every future lookup (they filter
    // by row tag) yet sit in the map until a sweep that may never come.
    // InsertPartitionLocked applies the same rule to the partitions.
    if (pin.rows ==
        std::atomic_load_explicit(&stamp_, std::memory_order_relaxed)
            ->rows) {
      entropies_[attrs] = CachedEntropy{h, pin.rows};
    }
    for (auto& entry : fresh) {
      const AttrSet set = entry.set;
      const size_t bytes = InsertPartitionLocked(
          set, std::move(entry.partition), std::move(entry.chain),
          entry.last_col_card, pin.rows, std::move(entry.delta));
      if (arbiter_ != nullptr && bytes > 0) charged.emplace_back(set, bytes);
    }
  }
  if (arbiter_ != nullptr && !charged.empty()) {
    // Charge outside mu_: the arbiter may evict — from this engine or any
    // other on the same budget — and its evict callbacks re-take engine
    // mutexes (arbiter -> engine order only).
    arbiter_->Charge(this, charged);
  }
  return h;
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
    if (arbiter_ == nullptr) EvictToPrivateBudgetLocked(attrs);
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
  // With a shared arbiter attached, eviction is global and happens when the
  // caller charges the arbiter after releasing mu_; the private budget is
  // inert.
  if (arbiter_ != nullptr) return inserted_bytes;
  EvictToPrivateBudgetLocked(attrs);
  return inserted_bytes;
}

void EntropyEngine::EvictToPrivateBudgetLocked(AttrSet spare) {
  // Evict least-recently-used partitions past the budget, sparing the entry
  // just touched. Linear scans are fine: the cache holds at most a few
  // hundred lattice points in practice.
  while (partition_bytes_ > options_.cache_budget_bytes &&
         partitions_.size() > 1) {
    auto victim = partitions_.end();
    uint64_t oldest = UINT64_MAX;
    for (auto jt = partitions_.begin(); jt != partitions_.end(); ++jt) {
      if (jt->first == spare) continue;
      if (jt->second.last_used < oldest) {
        oldest = jt->second.last_used;
        victim = jt;
      }
    }
    if (victim == partitions_.end()) break;
    EvictPartitionLocked(victim, /*allow_spill=*/true);
  }
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
  *pos = bucket.back();
  bucket.pop_back();
  partitions_.erase(it);
}

void EntropyEngine::EvictPartitionLocked(
    std::unordered_map<AttrSet, CachedPartition, AttrSetHash>::iterator it,
    bool allow_spill) {
  if (allow_spill && persist_ != nullptr && options_.persist_spill_on_evict &&
      it->second.partition != nullptr) {
    try {
      SpillPartitionLocked(it->first, it->second);
    } catch (const std::exception&) {
      // A spill that cannot even be attempted (allocation) degrades to a
      // plain eviction; the entry recomputes cold like any evicted one.
      ++stats_.persist_fallbacks;
    }
  }
  RemovePartitionLocked(it);
  ++stats_.evictions;
}

void EntropyEngine::SpillPartitionLocked(AttrSet attrs,
                                         const CachedPartition& cp) {
  // Only current-generation entries go down: a superseded row tag would
  // persist an entry no restart could use past the next catch-up anyway.
  if (cp.rows !=
      std::atomic_load_explicit(&stamp_, std::memory_order_relaxed)->rows) {
    return;
  }
  PersistedEntryMeta meta;
  meta.fingerprint = FingerprintFor(cp.rows);  // fp_mu_ is a leaf under mu_
  meta.attrs = attrs;
  meta.rows = cp.rows;
  meta.chain = cp.chain;
  meta.last_col_card = cp.last_col_card;
  auto eit = entropies_.find(attrs);
  if (eit != entropies_.end() && eit->second.rows == cp.rows) {
    meta.has_entropy = true;
    meta.entropy = eit->second.h;
  }
  PartitionPayload payload;
  cp.partition->FlattenStripped(&payload.rows, &payload.offsets);
  if (persist_->Put(meta, &payload).ok()) ++stats_.persist_spills;
}

void EntropyEngine::DropPartitionForArbiter(AttrSet attrs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = partitions_.find(attrs);
  if (it == partitions_.end()) return;
  // An arbiter victim is a cold-ish but current entry: demote it to disk.
  EvictPartitionLocked(it, /*allow_spill=*/true);
}

bool EntropyEngine::ParallelBatches() const {
  return (options_.num_threads != 0
              ? options_.num_threads
              : std::max(1u, std::thread::hardware_concurrency())) > 1;
}

uint32_t EntropyEngine::PoolSizeFor(size_t n) const {
  // Demand a few misses per participant: waking the pool for a handful of
  // terms costs more in wakeup latency and cache-mutex contention than the
  // misses themselves (hill-climb sweeps re-batch mostly-warm
  // neighborhoods).
  constexpr size_t kMinMissesPerWorker = 4;
  if (n < 2 * kMinMissesPerWorker) return 1;
  uint32_t threads = options_.num_threads != 0
                         ? options_.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<uint32_t>(
      std::min<size_t>(threads, n / kMinMissesPerWorker));
}

uint32_t EntropyEngine::RefineThreadsFor(uint64_t mass) const {
  uint32_t threads = options_.refine_threads != 0 ? options_.refine_threads
                     : options_.num_threads != 0
                         ? options_.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  if (threads <= 1 || mass < kShardedRefineMinMass) return 1;
  // One thread per shard's worth of rows: below that a shard finishes
  // faster than the fan-out costs (PlanShardCount in the kernels clamps
  // identically; clamping here too keeps the resolved count honest for
  // observers).
  const uint64_t by_mass = mass / kShardedRefineShardMass;
  if (by_mass < threads) threads = static_cast<uint32_t>(by_mass);
  return threads < 1 ? 1 : threads;
}

void EntropyEngine::BatchEntropy(const AttrSet* sets, size_t n, double* out) {
  CatchUp();
  // ONE pin for the whole batch: every term is evaluated over the same
  // pinned prefix, so the batch is internally consistent even if appends
  // land mid-flight.
  const EpochPin pin = Pin();
  // Size the pool by *distinct misses*, not batch size: waking workers to
  // service cache hits costs more than the hits themselves (the miner
  // re-batches mostly-warm term lists every split round), and dispatching
  // duplicate sets to the pool would compute the same refinement chain
  // once per copy (the cache dedups only at the final insert).
  std::vector<AttrSet> misses;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      if (sets[i].Empty()) continue;
      auto it = entropies_.find(sets[i]);
      if (it == entropies_.end() || it->second.rows != pin.rows) {
        misses.push_back(sets[i]);
      }
    }
  }
  std::sort(misses.begin(), misses.end());
  misses.erase(std::unique(misses.begin(), misses.end()), misses.end());
  const uint32_t pool = pin.rows == 0 ? 1 : PoolSizeFor(misses.size());
  if (pool > 1) {
    // Fill the cache from the deduped miss list in parallel, then read the
    // whole batch out of it below.
    std::function<void(size_t)> fn = [this, &misses, pin](size_t i) {
      AJD_INJECT_FAULT(failpoints::kEngineBatchTask);
      ComputeEntropy(misses[i], pin);
    };
    pool_->Run(misses.size(), pool, fn);
  }
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
  std::vector<AttrSet> need;
  need.reserve(sets.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (AttrSet s : sets) {
      if (s.Empty()) continue;
      auto it = entropies_.find(s);
      if (it == entropies_.end() || it->second.rows != pin.rows) {
        need.push_back(s);
      }
    }
  }
  std::sort(need.begin(), need.end());
  need.erase(std::unique(need.begin(), need.end()), need.end());
  if (need.empty()) return;
  const uint32_t pool = PoolSizeFor(need.size());
  if (pool <= 1) {
    for (AttrSet s : need) ComputeEntropy(s, pin);
    return;
  }
  std::function<void(size_t)> fn = [this, &need, pin](size_t i) {
    ComputeEntropy(need[i], pin);
  };
  pool_->Run(need.size(), pool, fn);
}

void EntropyEngine::PrewarmSubsets(const std::vector<AttrSet>& sets) {
  CatchUp();
  const EpochPin pin = Pin();
  if (pin.rows == 0) return;
  // Only sets without a pin-current materialized partition need work;
  // sorting the survivors makes the serial fill order (and thus the exact
  // cached values) independent of the caller's enumeration order.
  std::vector<AttrSet> need;
  need.reserve(sets.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (AttrSet s : sets) {
      if (s.Empty()) continue;
      AJD_CHECK(s.IsSubsetOf(relation().schema().AllAttrs()));
      auto it = partitions_.find(s);
      if (it == partitions_.end() || it->second.rows != pin.rows) {
        need.push_back(s);
      }
    }
  }
  std::sort(need.begin(), need.end());
  need.erase(std::unique(need.begin(), need.end()), need.end());
  if (need.empty()) return;

  const uint32_t pool = PoolSizeFor(need.size());
  if (pool <= 1) {
    for (AttrSet s : need) ComputeEntropy(s, pin, /*materialize_final=*/true);
    return;
  }
  std::function<void(size_t)> fn = [this, &need, pin](size_t i) {
    ComputeEntropy(need[i], pin, /*materialize_final=*/true);
  };
  pool_->Run(need.size(), pool, fn);
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
                                     bool materialize_final, double* h_out) {
  {
    // The entropy VALUE can miss while the partition itself is resident at
    // the pinned row count (a catch-up sweeps entropies_ but revalidates
    // partitions_ in place). Recomputing from the in-memory partition is
    // strictly cheaper than a disk round-trip, so only a true double miss
    // probes the store.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = partitions_.find(attrs);
    if (it != partitions_.end() && it->second.rows == pin.rows) return false;
  }
  {
    // A pin behind the tracker is a superseded generation mid-catch-up:
    // probing it would pay a full O(pin.rows) fingerprint recompute per
    // miss (the tracker only moves forward). Stale pins are transient —
    // they just compute cold.
    std::lock_guard<std::mutex> lock(fp_mu_);
    if (pin.rows < fp_->rows()) return false;
  }
  const uint64_t fp = FingerprintFor(pin.rows);
  PersistedEntryMeta meta;
  if (!persist_->LookupExact(fp, attrs, pin.rows, &meta)) return false;

  if (!meta.has_payload) {
    // Value-only entry: the stored H (its journal record is CRC-verified,
    // and the fingerprint key pins the exact relation content it was
    // computed over). Useless when the caller needs the partition itself.
    if (!meta.has_entropy || materialize_final) return false;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.persist_hits;
    if (pin.rows ==
        std::atomic_load_explicit(&stamp_, std::memory_order_relaxed)
            ->rows) {
      entropies_[attrs] = CachedEntropy{meta.entropy, pin.rows};
    }
    *h_out = meta.entropy;
    return true;
  }

  // The recorded chain must be a permutation of exactly this attribute
  // set — anything else is a stale or foreign producer's record, and a
  // partition admitted under the wrong recipe would extend incorrectly at
  // the next catch-up.
  AttrSet chain_set;
  bool chain_ok =
      !meta.chain.empty() && meta.chain.size() == attrs.Count();
  for (uint32_t a : meta.chain) {
    if (!chain_ok) break;
    if (a >= kMaxAttrs || chain_set.Contains(a)) {
      chain_ok = false;
      break;
    }
    chain_set.Add(a);
  }
  if (!chain_ok || chain_set != attrs) {
    (void)persist_->Erase(fp, attrs, pin.rows);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.persist_fallbacks;
    return false;
  }
  Result<PartitionPayload> loaded = persist_->LoadPayload(meta);
  if (!loaded.ok()) {
    // Corrupt or vanished blob: the store quarantined it; compute cold.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.persist_fallbacks;
    return false;
  }
  Result<Partition> rebuilt = Partition::FromStripped(
      std::move(loaded.value().rows), std::move(loaded.value().offsets),
      pin.rows);
  if (!rebuilt.ok()) {
    // Checksum-clean but structurally invalid (stale producer): the entry
    // can never serve, so drop it rather than re-failing every miss.
    (void)persist_->Erase(fp, attrs, pin.rows);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.persist_fallbacks;
    return false;
  }
  auto p = std::make_shared<const Partition>(std::move(rebuilt).value());
  // H derives from the VALIDATED partition, not the stored double: the
  // partition is the entry's load-bearing content, and EntropyNats runs
  // the same XLogX block-order accumulation the engine uses everywhere.
  const double h = p->EntropyNats(pin.rows);
  size_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.persist_hits;
    ++stats_.persist_reloads;
    if (pin.rows ==
        std::atomic_load_explicit(&stamp_, std::memory_order_relaxed)
            ->rows) {
      entropies_[attrs] = CachedEntropy{h, pin.rows};
    }
    bytes = InsertPartitionLocked(attrs, p, std::move(meta.chain),
                                  meta.last_col_card, pin.rows,
                                  PartitionDelta{});
  }
  if (arbiter_ != nullptr && bytes > 0) {
    std::vector<std::pair<AttrSet, size_t>> charged{{attrs, bytes}};
    arbiter_->Charge(this, charged);
  }
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
  // Leave the tracker at the current row count: the miss-path probe and
  // spills read it from here on.
  (void)FingerprintFor(now);

  // Per attribute set, the deepest usable prefix entry: content-verified
  // (its fingerprint matches OUR relation at its recorded row count —
  // entries of other relations sharing the store simply never match) and
  // longest, payload-carrying entries preferred on ties.
  std::unordered_map<AttrSet, const PersistedEntryMeta*, AttrSetHash> best;
  for (const PersistedEntryMeta& e : all) {
    if (e.rows == 0 || e.rows > now) continue;
    auto fit = fp_at.find(e.rows);
    if (fit == fp_at.end() || fit->second != e.fingerprint) continue;
    auto [bit, inserted] = best.emplace(e.attrs, &e);
    if (!inserted && (e.rows > bit->second->rows ||
                      (e.rows == bit->second->rows && e.has_payload &&
                       !bit->second->has_payload))) {
      bit->second = &e;
    }
  }
  if (best.empty()) return;

  // Chain length ascending, so every entry's direct parent (a strict chain
  // prefix, hence a smaller set) is reloaded and extended before the entry
  // needs it — the same order catch-up extends in.
  std::vector<const PersistedEntryMeta*> picked;
  picked.reserve(best.size());
  for (const auto& kv : best) picked.push_back(kv.second);
  std::sort(picked.begin(), picked.end(),
            [](const PersistedEntryMeta* a, const PersistedEntryMeta* b) {
              if (a->attrs.Count() != b->attrs.Count()) {
                return a->attrs.Count() < b->attrs.Count();
              }
              return a->attrs < b->attrs;
            });

  struct Reloaded {
    std::shared_ptr<const Partition> original;  // at meta->rows
    std::shared_ptr<const Partition> final;     // extended to `now`
    const PersistedEntryMeta* meta = nullptr;
    PartitionDelta delta;  // emitted by the extension, when one ran
  };
  std::unordered_map<AttrSet, Reloaded, AttrSetHash> ready;
  uint64_t reloads = 0, extended = 0, fallbacks = 0, value_hits = 0;

  for (const PersistedEntryMeta* e : picked) {
    if (!e->has_payload) continue;  // value-only entries handled below
    // Same recipe sanity as the miss path.
    AttrSet chain_set;
    bool chain_ok =
        !e->chain.empty() && e->chain.size() == e->attrs.Count();
    for (uint32_t a : e->chain) {
      if (!chain_ok) break;
      if (a >= kMaxAttrs || chain_set.Contains(a)) {
        chain_ok = false;
        break;
      }
      chain_set.Add(a);
    }
    if (!chain_ok || chain_set != e->attrs) {
      ++fallbacks;
      continue;
    }
    Result<PartitionPayload> loaded = persist_->LoadPayload(*e);
    if (!loaded.ok()) {
      ++fallbacks;
      continue;
    }
    Result<Partition> rebuilt = Partition::FromStripped(
        std::move(loaded.value().rows), std::move(loaded.value().offsets),
        e->rows);
    if (!rebuilt.ok()) {
      (void)persist_->Erase(e->fingerprint, e->attrs, e->rows);
      ++fallbacks;
      continue;
    }
    Reloaded r;
    r.meta = e;
    r.original =
        std::make_shared<const Partition>(std::move(rebuilt).value());
    ++reloads;
    const uint64_t m = e->rows;
    if (m == now) {
      r.final = r.original;
    } else if (e->chain.size() == 1) {
      // Root of a chain: the single-column extension needs no parent.
      const Column col = store_.ColumnAt(e->chain[0], now);
      r.final = std::make_shared<const Partition>(
          r.original->ExtendedOfColumn(col, m));
      ++extended;
    } else {
      // Deeper entry: the delta path needs the direct parent both in its
      // persisted form (at the same row count — the block correspondence
      // seed) and already extended to `now`. Entries that can't extend
      // cheaply are SKIPPED, not replayed: a warm restart that silently
      // replays chains cold costs more than the cold start it replaces.
      AttrSet parent_set;
      for (size_t j = 0; j + 1 < e->chain.size(); ++j) {
        parent_set.Add(e->chain[j]);
      }
      auto pit = ready.find(parent_set);
      const Column col = store_.ColumnAt(e->chain.back(), now);
      const bool parent_usable =
          pit != ready.end() && pit->second.final != nullptr &&
          pit->second.meta->rows == m &&
          pit->second.meta->chain.size() + 1 == e->chain.size() &&
          std::equal(pit->second.meta->chain.begin(),
                     pit->second.meta->chain.end(), e->chain.begin());
      const bool kernel_stable =
          parent_usable &&
          ChooseRefineKernel(col.cardinality,
                             pit->second.final->NumStrippedRows()) ==
              ChooseRefineKernel(e->last_col_card,
                                 pit->second.final->NumStrippedRows());
      if (!parent_usable || !kernel_stable) {
        ++fallbacks;
        continue;
      }
      r.final = std::make_shared<const Partition>(r.original->ExtendedBy(
          pit->second.original.get(), *pit->second.final, col, m, nullptr,
          &r.delta));
      ++extended;
    }
    ready.emplace(e->attrs, std::move(r));
  }

  std::vector<std::pair<AttrSet, size_t>> charged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& kv : ready) {
      Reloaded& r = kv.second;
      const uint32_t last_col_card =
          store_.ColumnAt(r.meta->chain.back(), now).cardinality;
      const size_t bytes = InsertPartitionLocked(
          kv.first, r.final, r.meta->chain, last_col_card, now,
          std::move(r.delta));
      if (arbiter_ != nullptr && bytes > 0) {
        charged.emplace_back(kv.first, bytes);
      }
      // A stored H is only current when the entry needed no extension.
      if (r.meta->rows == now && r.meta->has_entropy) {
        entropies_[kv.first] = CachedEntropy{r.meta->entropy, now};
        ++value_hits;
      }
    }
    for (const PersistedEntryMeta* e : picked) {
      if (e->has_payload || !e->has_entropy || e->rows != now) continue;
      entropies_[e->attrs] = CachedEntropy{e->entropy, now};
      ++value_hits;
    }
    stats_.persist_reloads += reloads;
    stats_.persist_extended += extended;
    stats_.persist_fallbacks += fallbacks;
    stats_.persist_hits += value_hits;
  }
  if (arbiter_ != nullptr && !charged.empty()) {
    arbiter_->Charge(this, charged);
  }
}

Status EntropyEngine::PersistCache() {
  if (persist_ == nullptr) {
    return Status::FailedPrecondition(
        "no persistent store attached (EngineOptions::persist_store)");
  }
  CatchUp();
  struct Item {
    AttrSet set;
    std::shared_ptr<const Partition> partition;
    std::vector<uint32_t> chain;
    uint32_t last_col_card = 0;
    bool has_entropy = false;
    double h = 0.0;
  };
  std::vector<Item> items;
  uint64_t rows_now = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows_now =
        std::atomic_load_explicit(&stamp_, std::memory_order_relaxed)->rows;
    for (const auto& kv : partitions_) {
      if (kv.second.rows != rows_now || kv.second.partition == nullptr) {
        continue;
      }
      Item item;
      item.set = kv.first;
      item.partition = kv.second.partition;
      item.chain = kv.second.chain;
      item.last_col_card = kv.second.last_col_card;
      auto eit = entropies_.find(kv.first);
      if (eit != entropies_.end() && eit->second.rows == rows_now) {
        item.has_entropy = true;
        item.h = eit->second.h;
      }
      items.push_back(std::move(item));
    }
    // Entropy-only terms (the common case: final chain steps take the
    // count-only pass and never materialize) persist as value-only
    // records — 16 bytes of journal each, no blob.
    for (const auto& kv : entropies_) {
      if (kv.second.rows != rows_now) continue;
      if (partitions_.find(kv.first) != partitions_.end()) continue;
      Item item;
      item.set = kv.first;
      item.has_entropy = true;
      item.h = kv.second.h;
      items.push_back(std::move(item));
    }
  }
  if (rows_now == 0 || items.empty()) return Status::OK();
  const uint64_t fp = FingerprintFor(rows_now);
  Status first = Status::OK();
  uint64_t spilled = 0;
  for (const Item& item : items) {
    PersistedEntryMeta meta;
    meta.fingerprint = fp;
    meta.attrs = item.set;
    meta.rows = rows_now;
    meta.has_entropy = item.has_entropy;
    meta.entropy = item.h;
    meta.chain = item.chain;
    meta.last_col_card = item.last_col_card;
    Status s;
    if (item.partition != nullptr) {
      PartitionPayload payload;
      item.partition->FlattenStripped(&payload.rows, &payload.offsets);
      s = persist_->Put(meta, &payload);
    } else {
      s = persist_->Put(meta, nullptr);
    }
    if (s.ok()) {
      ++spilled;
    } else if (first.ok()) {
      first = s;  // keep going: persist everything that still can be
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.persist_spills += spilled;
  }
  return first;
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
