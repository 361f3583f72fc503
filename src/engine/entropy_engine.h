// EntropyEngine: the shared, lattice-aware marginal-entropy oracle.
//
// Every quantity the paper computes — J(T) (Eq. 7), the Theorem 2.2
// sandwich, Lemma 4.1's loss bound, the miner's attach scores — reduces to
// entropies H(attrs) over one relation's empirical distribution. The engine
// answers those queries out of an AttrSet-keyed cache of entropies AND
// stripped partitions (engine/partition.h): a miss for H(S) picks the
// cached subset T of S minimizing the modeled refinement cost (stripped
// rows of T times the number of missing columns) and refines T's partition
// by the dense columns of S \ T, instead of re-hashing N * |S| words from
// scratch. Missing columns are applied in order of block-splitting power
// — min(cardinality, current stripped mass), narrowest column first on a
// tie — so the mass collapses as early as possible. Every step is one single-column
// refinement (engine/refine_kernels.h), and every intermediate partition is
// cached as a future base; the last step of a plain query only counts the
// refined blocks instead of materializing them.
//
// One set skips all of that. Over a prefix the relation knows to be
// duplicate-free (Relation::DistinctPrefixRows()), every attribute at once
// groups each row alone, so H(all attributes) = ln N — the last term of
// J(T) for every tree over the whole schema. The miss path answers it
// directly: no refinement chain, and NO cached partition (PartitionAt hands
// out a fresh empty one). An all-attribute entry would record a chain
// through every column, and each catch-up would extend that chain's deep
// prefixes only to reconfirm ln N. Multisets take the ordinary path.
//
// Thread safety: all public methods are safe to call concurrently — WHILE
// THE RELATION IS BEING APPENDED TO. There is no quiescence rule. Readers
// pin the (synced row count, epoch) pair they started with (Pin()) and
// never look past it: cached entropies and partitions are tagged with the
// row count they cover, pinned column views come from the column store's
// RCU publication, and a reader of epoch k computes exactly the cold
// answer over the first rows-at-k rows no matter how many epochs land
// meanwhile. The caches are guarded by a mutex and the heavy refinement
// work runs outside it. BatchEntropy evaluates independent terms on a
// WorkerPool (engine/worker_pool.h) shared across engines — the shape of
// the miner's per-step candidate batches.
//
// Values: H(S) is a pure function of (relation prefix, S). Every path
// evaluates it from the block-size histogram of S's grouping
// (engine/block_histogram.h), so a value does not depend on which cached
// base a miss refined from, on cache history, on catch-up vs cold, on
// whether the disk tier served it, or on the thread count; it equals
// EntropyOf bit for bit.
//
// Epochs: the engine follows its relation across batch appends
// (relation/relation.h). Every query entry point calls CatchUp() first
// (one atomic load when already synced). Catch-up is COOPERATIVE: the
// caller that wins a try-lock runs it — the first reader of a new epoch,
// or the appender calling CatchUp() right after its batch — while every
// other reader keeps serving off the previous stamp concurrently. The
// catch-up owner CLAIMS the recently-used cached partitions (removing them
// from the visible cache under the mutex), extends each along its recorded
// chain OUTSIDE the mutex (Partition::ExtendOfColumnInPlace /
// ExtendInPlaceBy reproduce the cold replay of that chain bit-for-bit;
// sole-owner entries extend in place, and an entry a reader still holds
// extends a clone), then PUBLISHES the extended generation and the new stamp
// atomically. Partitions idle through the whole previous epoch are dropped
// instead (extension costs O(mass); paying it for a dead miner
// intermediate every batch would turn catch-up back into the O(cache)
// rebuild it replaces). Stale entropy values are swept by row-count tag;
// subsequent queries recompute them from the extended partitions, and get
// the cold value bit for bit (H depends only on the grouping).
//
// Failure semantics: no runtime failure aborts the process or corrupts a
// served answer.
//   - Query paths (Entropy/EntropyAt/PartitionAt/BatchEntropy/Prewarm*)
//     propagate failures — allocation exhaustion, injected faults — to the
//     CALLING thread as exceptions, with no partial cache entries left
//     behind; a batch task that throws is contained by the WorkerPool
//     (the batch completes, the first error rethrows on the submitter —
//     engine/worker_pool.h). Retrying the same query is always safe.
//   - Catch-up DEGRADES instead of failing: a claimed entry whose
//     extension throws is dropped (EngineStats::catchup_dropped) and the
//     new epoch still publishes; dropped entries recompute cold — and
//     bitwise-correct — on next use, and arbiter settlement stays exact
//     (discharged at claim, simply never recharged). A failure after
//     extension but before publish abandons the attempt whole
//     (EngineStats::catchup_aborts) with the previous stamp intact:
//     readers keep serving that epoch's cold-correct answers and the
//     next query retries. CatchUp() itself never throws.
// The fault-injection soak (tests/fault_injection_test.cc, failpoints
// engine/compute_partition, engine/batch_task, engine/catchup_extend,
// engine/catchup_publish — util/failpoint.h) enforces all of this.
#ifndef AJD_ENGINE_ENTROPY_ENGINE_H_
#define AJD_ENGINE_ENTROPY_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/column_store.h"
#include "engine/partition.h"
#include "persist/persistent_store.h"
#include "relation/attr_set.h"
#include "relation/relation.h"

namespace ajd {

class CacheArbiter;          // engine/cache_arbiter.h
class WorkerPool;            // engine/worker_pool.h
class FingerprintTracker;    // relation/fingerprint.h

/// A reader's pinned view of the relation: the synced row count and epoch
/// the engine's caches covered when the pin was taken. Every value
/// computed against a pin is the cold answer over the first `rows` rows —
/// regardless of how many appends land while the reader runs.
struct EpochPin {
  uint64_t rows = 0;
  uint64_t epoch = 0;
};

/// Tuning knobs for an EntropyEngine.
struct EngineOptions {
  /// Cap on the total heap bytes of cached partitions. Entropy values
  /// themselves (one small map node a term) are always cached; partitions
  /// are the bulky part and are evicted least-recently-used past this
  /// budget. An engine without `cache_arbiter` spends it through a
  /// single-engine arbiter of its own; with one attached, the arbiter's
  /// budget governs instead. AnalysisSession sizes its shared arbiter from
  /// this field.
  size_t cache_budget_bytes = size_t{256} << 20;
  /// Threads for the batch paths (BatchEntropy, WarmEntropies,
  /// PrewarmSubsets) and catch-up: parallelism is ACROSS refinements, and
  /// each refinement step is one serial kernel call. 0 (the default) means
  /// every CPU the process may run on (EffectiveCpuCount(),
  /// engine/worker_pool.h: affinity mask capped by the cgroup quota), used
  /// only as far as the predicted work pays: a batch or catch-up level
  /// fans out one participant per ~2^18 stripped-row refinement steps the
  /// cost model prices it at, less the lattice scans its misses pay under
  /// the cache mutex, so small batches run inline. An explicit count only
  /// caps the participants the same gate grants; 1 is fully serial.
  /// Process-wide side effect: the first time a pool spawns a worker (any
  /// setting above 1, including the default on a multi-CPU host, and pools
  /// injected through `worker_pool`), glibc malloc is capped at ONE arena
  /// for the whole host process (mallopt(M_ARENA_MAX, 1); measurements in
  /// engine/worker_pool.cc). Setting the MALLOC_ARENA_MAX environment
  /// variable keeps the caller's own arena policy instead. An engine at
  /// num_threads = 1 never spawns a worker.
  /// Values are identical at every setting (see the header comment).
  /// MinerOptions::num_threads and AnalysisSession plumb this knob through
  /// to the mining hot path.
  uint32_t num_threads = 0;
  /// The batch pool to fan out on. nullptr = the process-wide shared pool
  /// (WorkerPool::Shared()). AnalysisSession resolves this once, so all of
  /// a session's engines share one pool and a many-relation sweep stops
  /// oversubscribing cores.
  std::shared_ptr<WorkerPool> worker_pool;
  /// The cache budget to charge cached partitions against
  /// (engine/cache_arbiter.h). nullptr (the default) gives the engine a
  /// single-engine arbiter holding `cache_budget_bytes`. AnalysisSession
  /// attaches one arbiter to all of its engines, so a many-relation sweep
  /// spends ONE budget where the reuse actually is, instead of slicing it
  /// evenly per relation.
  std::shared_ptr<CacheArbiter> cache_arbiter;
  /// The crash-safe on-disk value journal (persist/persistent_store.h),
  /// shared across engines and PROCESS LIFETIMES. It holds entropy values
  /// only, keyed by relation content fingerprint, set and row count, so a
  /// foreign or stale file can cost a probe, never change an answer. When
  /// set, the engine seeds its entropy cache from it at construction
  /// (warm restart: the values persisted at the current row count), and a
  /// plain value miss looks its key up before computing cold; a caller
  /// that needs the partition itself always computes it. Entries are
  /// written only by PersistCache. nullptr (default): no disk tier.
  std::shared_ptr<PersistentCacheStore> persist_store;
};

/// Monotonically increasing counters describing engine behavior. Hit rate
/// is the fraction of Entropy() queries answered from the entropy cache.
struct EngineStats {
  uint64_t queries = 0;          ///< Entropy() calls (incl. batch members).
  uint64_t hits = 0;             ///< answered from the entropy cache.
  uint64_t base_reuses = 0;      ///< misses that refined a cached partition.
  uint64_t partition_builds = 0; ///< partitions built from a raw column.
  uint64_t refinements = 0;      ///< single-column refinement steps applied.
  uint64_t fused_refinements = 0; ///< always 0: every step refines by one
                                  ///< column. Kept because the end-to-end
                                  ///< benchmark (e2ebench/src/workloads.cc)
                                  ///< reports it.
  uint64_t evictions = 0;        ///< partitions dropped for the budget.
  uint64_t epoch_catchups = 0;   ///< relation-epoch synchronizations.
  uint64_t partitions_extended = 0; ///< cached partitions delta-extended
                                    ///< during catch-up (O(delta + touched
                                    ///< blocks) each).
  uint64_t partitions_replayed = 0; ///< cached partitions rebuilt by chain
                                    ///< replay instead (evicted ancestor
                                    ///< or divergent chain).
  uint64_t catchup_dropped = 0;  ///< claimed entries dropped because their
                                 ///< extension failed mid-catch-up; later
                                 ///< reads recompute them cold.
  uint64_t catchup_aborts = 0;   ///< catch-up attempts abandoned whole by a
                                 ///< failure before publish; retried on the
                                 ///< next query.
  // Disk tier (EngineOptions::persist_store; all zero without one).
  uint64_t persist_hits = 0;     ///< disk-tier values a query read: a
                                 ///< warm-start value on its first read,
                                 ///< and every miss-path lookup hit.
  uint64_t persist_reloads = 0;  ///< always 0: the disk tier holds no
                                 ///< partitions. Kept because the
                                 ///< end-to-end benchmark
                                 ///< (e2ebench/src/workloads.cc) reports it.
  uint64_t persist_fallbacks = 0; ///< warm restarts abandoned by a failure
                                  ///< (allocation); the engine starts cold
                                  ///< instead (degrade, never corrupt).

  double HitRate() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(queries);
  }
};

/// The per-relation entropy oracle. The relation must outlive the engine.
/// Not copyable; share one instance per relation (see AnalysisSession).
class EntropyEngine {
 public:
  explicit EntropyEngine(const Relation* r, EngineOptions options = {});
  ~EntropyEngine();

  EntropyEngine(const EntropyEngine&) = delete;
  EntropyEngine& operator=(const EntropyEngine&) = delete;

  /// H(attrs) in nats over the relation's empirical distribution.
  /// H(empty) = 0. Equals EntropyOf (info/entropy.h) bit for bit.
  /// Equivalent to CatchUp() + EntropyAt(attrs, Pin()).
  double Entropy(AttrSet attrs);

  /// The engine's current synchronized view: the row count and epoch a
  /// reader starting now would be pinned to. One atomic load; safe
  /// concurrently with appends and catch-ups.
  EpochPin Pin() const;

  /// Catches up and returns the pin, like CatchUp() + Pin(), except that
  /// a catch-up another thread has in flight is waited for instead of
  /// returned past, then rechecked: the pin covers every row appended
  /// before the call unless a catch-up attempt aborted
  /// (EngineStats::catchup_aborts). For callers that must read the
  /// relation they just appended to (StreamingLossMonitor::Observe,
  /// AnalyzeAjd, ComputeLoss); plain readers keep the try-lock path.
  EpochPin SyncedPin();

  /// H(attrs) over exactly the first pin.rows rows — the pinned-reader
  /// entry point. Does NOT catch up: a reader holding a pin taken before
  /// an append keeps getting the cold answer at its pinned epoch while
  /// later epochs are published concurrently. Values computed at a
  /// superseded pin bypass (and never pollute) the caches of newer pins.
  double EntropyAt(AttrSet attrs, const EpochPin& pin);

  /// The stripped partition of `attrs` over exactly the first pin.rows
  /// rows — the pinned counterpart of EntropyAt for callers that need the
  /// grouping itself (distinct counts, per-group join sizes, per-row
  /// block sizes), not just its entropy. A partition cached at the pin's
  /// row count is returned as is; otherwise the miss computes it through
  /// the ordinary refinement chain with the last step materialized (the
  /// PrewarmSubsets path), caching every step; the disk tier holds values
  /// only, so it never serves this call. All
  /// attributes over a duplicate-free prefix get a fresh empty partition
  /// that is not cached (see the header comment). The
  /// returned pointer is the caller's to hold: an eviction after the call
  /// (arbiter pressure, catch-up sweep) drops the cache's reference, never
  /// the caller's, and catch-up extends a clone of a reader-held entry, so
  /// the grouping never changes underneath. `attrs` must be non-empty.
  /// Does NOT catch up, exactly like EntropyAt.
  std::shared_ptr<const Partition> PartitionAt(AttrSet attrs,
                                               const EpochPin& pin);

  /// Evaluates n independent entropy terms, writing out[i] = H(sets[i]).
  /// Set sizes are taken largest first: each size's distinct misses are
  /// computed on the engine's thread pool when their predicted work pays
  /// for it, and the reads then compute the remaining misses on demand, in
  /// order. Safe to call while other threads query the engine.
  void BatchEntropy(const AttrSet* sets, size_t n, double* out);

  /// Convenience vector form of BatchEntropy.
  std::vector<double> BatchEntropy(const std::vector<AttrSet>& sets);

  /// Cache-warming form of BatchEntropy: when the misses' predicted work
  /// pays for a fan-out, computes and caches H(s) for every set not
  /// already cached (duplicates folded) on the pool; otherwise it does
  /// nothing, and the caller's reads compute the misses on demand, in the
  /// caller's order, as on a serial engine. Returns nothing. The fit for
  /// callers that re-read the values through Entropy() afterwards — the
  /// miner's scoring loops — where a mostly-warm batch should cost one
  /// hash probe per term, not a full query round-trip.
  void WarmEntropies(const std::vector<AttrSet>& sets);

  /// Ensures the entropy AND the materialized partition of every given set
  /// are cached, fanning the misses out on the batch pool. Plain Entropy()
  /// skips materializing the final partition of a refinement chain (the
  /// count-only pass is cheaper), so a caller about to issue a burst of
  /// superset queries — AnalyzeAjd's counting side, the streaming monitor's
  /// bag and separator terms — seeds the shared ancestors here first and
  /// every burst member then resolves in single-step refinements. Empty
  /// sets are ignored.
  void PrewarmSubsets(const std::vector<AttrSet>& sets);

  /// H(a | c) = H(a u c) - H(c).
  double ConditionalEntropy(AttrSet a, AttrSet c);

  /// I(a ; b | c) = H(a u c) + H(b u c) - H(a u b u c) - H(c) (Eq. 4),
  /// with tiny negative fp noise clamped to 0 exactly as the legacy
  /// EntropyCalculator did.
  double ConditionalMutualInformation(AttrSet a, AttrSet b, AttrSet c);

  /// I(a ; b) = I(a ; b | empty).
  double MutualInformation(AttrSet a, AttrSet b);

  /// The relation being measured.
  const Relation& relation() const { return store_.relation(); }

  /// The shared column-major view.
  const ColumnStore& columns() const { return store_; }

  /// Number of distinct entropy terms cached so far.
  size_t CacheSize() const;

  /// Number of partitions currently cached.
  size_t PartitionCacheSize() const;

  /// Heap bytes held by cached partitions.
  size_t PartitionBytes() const;

  /// Snapshot of the counters.
  EngineStats Stats() const;

  /// The uid of the relation this engine was built for. AnalysisSession
  /// compares it against the relation currently at the registered address:
  /// a mismatch means the relation died and a different one reuses the
  /// address, and the session transparently rebuilds the engine (the
  /// replacement for the old abort-on-mutation fingerprint guard — epoch
  /// growth is now legitimate and handled by CatchUp).
  uint64_t relation_uid() const { return relation_uid_; }

  /// The relation epoch the caches are synchronized to.
  uint64_t synced_epoch() const {
    return synced_epoch_.load(std::memory_order_acquire);
  }

  /// Synchronizes the engine with the relation's current epoch: extends
  /// columns over the appended rows, delta-extends the recently-used
  /// cached partitions along their recorded chains, sweeps
  /// stale entropy values, and settles the bytes with the cache arbiter.
  /// Every query entry point calls this first (one atomic load when
  /// already synced). SAFE concurrently with queries and with appends:
  /// one caller wins the catch-up try-lock and becomes the owner; everyone
  /// else returns immediately and keeps serving the previous stamp. An
  /// appender that calls it after each batch takes the work off the query
  /// path entirely.
  void CatchUp();

  /// Writes every entropy value cached at the current row count to the
  /// disk tier as one journal batch. The complement of the constructor's
  /// warm restart — call it before a planned shutdown so the next process
  /// starts where this one left off. Values already on disk are skipped
  /// (the store dedups). The entries this generation supersedes — every
  /// key this engine matched or wrote at an older row count — are then
  /// erased, so the store keeps one generation per relation. Returns the
  /// batch's write failure, if any; FailedPrecondition without a disk
  /// tier.
  Status PersistCache();

  /// Test/introspection hook: the recorded build chain and current
  /// partition of a cached attribute set, if materialized. The chain lists
  /// the dense columns applied from scratch, in order — replaying it cold
  /// over the full relation must reproduce `partition` bit-for-bit
  /// (tests/epoch_test.cc enforces exactly that after catch-up).
  bool CachedPartitionInfo(AttrSet attrs, std::vector<uint32_t>* chain,
                           std::shared_ptr<const Partition>* partition) const;

 private:
  struct CachedPartition {
    std::shared_ptr<const Partition> partition;
    uint64_t last_used = 0;
    /// Row count the partition covers — the generation tag. Readers pinned
    /// at a row count only consume entries with a matching tag; catch-up
    /// sweeps mismatched entries when publishing a new generation.
    uint64_t rows = 0;
    /// The full column-application recipe, from scratch: partition ==
    /// OfColumn(chain[0]).RefinedBy(chain[1])... One entry per attribute
    /// of the key.
    std::vector<uint32_t> chain;
    /// Parent-block correspondence against the direct parent (chain minus
    /// its last column) at `rows` (engine/refine_kernels.h): what the next
    /// catch-up's ExtendInPlaceBy walks, so no old parent is retained and
    /// no row->block index is built. INVARIANT: every entry with a chain
    /// of two or more columns holds its true delta. The refinement that
    /// builds it emits one (RefinedBy(..., &step_delta) in
    /// ComputeEntropy), every extension emits the next one, and a replay's
    /// last step emits one. The only entry built by no refinement is the
    /// all-singleton shortcut in ComputeEntropy, whose chain extends an
    /// all-singleton prefix: its direct parent has no stripped blocks, and
    /// the empty delta it carries is exactly that correspondence. Unused
    /// (empty) for single-column roots.
    PartitionDelta delta;
  };

  /// Computes H(attrs) at `pin` on a cache miss; called without holding
  /// mu_. Reads only pin-consistent state: ColumnAt views frozen at
  /// pin.rows and cached entries whose row tag equals pin.rows. When
  /// `materialize_final` is set, the last refinement step builds and caches
  /// the full partition of `attrs` instead of taking the count-only
  /// pass (the PrewarmSubsets path); `partition_out`, which requires
  /// materialize_final, then receives that partition directly. All
  /// attributes over a prefix within Relation::DistinctPrefixRows() return
  /// first, before the disk probe: H = ln N from an empty partition, the
  /// value cached as usual, no partition cached (see the header comment).
  double ComputeEntropy(
      AttrSet attrs, const EpochPin& pin, bool materialize_final = false,
      std::shared_ptr<const Partition>* partition_out = nullptr);

  /// The batch paths' shared fan-out: computes (and caches) the sets that
  /// miss at `pin` (a missing entropy, or with `materialize_final` a
  /// missing partition) on the pool, one level at a time, largest sets
  /// first — for every level whose predicted work pays for the pool.
  /// Returns the misses of the other levels (deduplicated per level) for
  /// the caller to run inline; a serial engine returns every non-empty set
  /// unprobed.
  std::vector<AttrSet> FanOutMisses(const AttrSet* sets, size_t n,
                                    const EpochPin& pin,
                                    bool materialize_final);

  /// Whether H(attrs) / the partition of attrs is cached at `rows` rows.
  /// Require mu_ held.
  bool HasEntropyLocked(AttrSet attrs, uint64_t rows) const;
  bool HasPartitionLocked(AttrSet attrs, uint64_t rows) const;

  /// The work gate's price of computing sets[0..n) at `rows` rows:
  /// predicted stripped-row refinement steps, which can run in parallel,
  /// net of the lattice scans, which cannot. Requires mu_ held.
  uint64_t FanOutWorkLocked(const AttrSet* sets, size_t n,
                            uint64_t rows) const;

  /// Caches H(attrs) = h at `rows` rows if `rows` is the current stamp's
  /// row count (a superseded pin's value is dropped). Requires mu_ held.
  void CacheEntropyLocked(AttrSet attrs, double h, uint64_t rows);

  /// Inserts a partition with its build recipe and row tag; returns its
  /// heap bytes if actually inserted (0 for duplicates — an existing entry
  /// under the key, at any tag, is only touched, never replaced: the
  /// current generation's entry must not be clobbered by a stale-pin
  /// compute). Never evicts: eviction is the arbiter's job, and the caller
  /// charges it AFTER releasing mu_. Requires mu_ held.
  size_t InsertPartitionLocked(AttrSet attrs,
                               std::shared_ptr<const Partition> p,
                               std::vector<uint32_t> chain, uint64_t rows,
                               PartitionDelta delta);

  /// CatchUp's body once the caller holds catchup_mu_: syncs to the
  /// relation's epoch unless a previous owner already did. Never throws.
  void CatchUpOwned();

  /// The catch-up owner's body; runs with catchup_mu_ held and mu_ NOT
  /// held. Three phases: CLAIM (under mu_: remove the recently-used cached
  /// partitions from the visible cache, drop the generationally idle ones),
  /// EXTEND (no locks: delta-extend each claimed entry along its recorded
  /// chain against the target-rows column views), PUBLISH (under mu_:
  /// sweep every remaining stale-tagged partition/entropy entry, reinsert
  /// the extended generation, store the new stamp). Arbiter settlement —
  /// discharge at claim/sweep, charge at publish — happens outside mu_.
  void RunCatchUp(uint64_t target_epoch, uint64_t target_rows);

  /// The arbiter's evict callback: drops one cached partition (if still
  /// present) and counts the eviction. Takes mu_; never calls the arbiter
  /// back, preserving the arbiter -> engine lock order.
  void DropPartitionForArbiter(AttrSet attrs);

  /// Removes one cached partition — map entry, popcount-bucket index
  /// entry, byte accounting — WITHOUT counting an eviction (catch-up's
  /// claim step uses it: claimed entries come back at publish). Requires
  /// mu_ held.
  void RemovePartitionLocked(
      std::unordered_map<AttrSet, CachedPartition, AttrSetHash>::iterator
          it);

  /// RemovePartitionLocked plus the eviction counter — the true-eviction
  /// form (budget pressure, generational drop, stale-generation sweep).
  /// Requires mu_ held.
  void EvictPartitionLocked(
      std::unordered_map<AttrSet, CachedPartition, AttrSetHash>::iterator
          it);

  /// The relation's content fingerprint over its first `rows` rows, via the
  /// incremental tracker (fp_mu_, a leaf: callable with or without mu_).
  uint64_t FingerprintFor(uint64_t rows);

  /// Miss-path value lookup in the disk tier: serves H(attrs) at `pin`
  /// from a persisted value when one matches exactly (and caches it).
  /// False on a miss; the caller computes cold. Called without mu_.
  bool TryServeFromDisk(AttrSet attrs, const EpochPin& pin, double* h_out);

  /// Constructor-time warm restart: fingerprints the relation at every
  /// persisted row count, installs the values persisted at the current
  /// one, and records every matched key for PersistCache to supersede.
  /// Values at an older row count are never served: they describe a
  /// prefix the relation has grown past.
  void WarmStartFromPersist();

  ColumnStore store_;
  EngineOptions options_;
  uint64_t relation_uid_ = 0;
  /// Relation epoch the caches cover; CatchUp's fast path is one acquire
  /// load of this against Relation::epoch().
  std::atomic<uint64_t> synced_epoch_{0};
  /// The shared batch pool (options_.worker_pool, or the process-wide
  /// default). Engines only ever submit batches; the pool owns the
  /// threads and serializes batches across engines.
  std::shared_ptr<WorkerPool> pool_;
  /// The cache budget: options_.cache_arbiter, or the engine's own
  /// single-engine arbiter. Never null. The engine registers at
  /// construction and releases its whole footprint at destruction.
  /// Arbiter calls are made only while mu_ is NOT held.
  std::shared_ptr<CacheArbiter> arbiter_;
  /// The disk tier, if any (options_.persist_store). A LEAF in the lock
  /// order: safe to call under mu_.
  std::shared_ptr<PersistentCacheStore> persist_;
  /// Incremental content fingerprint of the relation prefix (leaf mutex;
  /// only used with a disk tier attached).
  mutable std::mutex fp_mu_;
  std::unique_ptr<FingerprintTracker> fp_;

  /// Serializes catch-up owners. Acquired BEFORE mu_ (lock order:
  /// catchup_mu_ -> mu_, catchup_mu_ -> column-store internals; never the
  /// reverse) and held across the whole claim/extend/publish sequence;
  /// CatchUp() only try-locks it, so readers never block on a running
  /// catch-up; SyncedPin() alone waits on it.
  std::mutex catchup_mu_;
  /// The published stamp readers pin (atomic shared_ptr access). Written
  /// only by the catch-up owner, last step of publish.
  std::shared_ptr<const EpochPin> stamp_;

  mutable std::mutex mu_;
  /// One cached entropy value and the row count it was computed over.
  /// Lookups match the tag against the reader's pin; catch-up sweeps
  /// stale tags at publish. `from_disk` marks a value the warm start
  /// installed that no query has read yet: the first read counts it in
  /// persist_hits and clears the mark.
  struct CachedEntropy {
    double h = 0.0;
    uint64_t rows = 0;
    bool from_disk = false;
  };
  std::unordered_map<AttrSet, CachedEntropy, AttrSetHash> entropies_;
  std::unordered_map<AttrSet, CachedPartition, AttrSetHash> partitions_;
  /// One cached-partition index entry: the key, its (immutable at a given
  /// row tag) stripped mass, and the row tag, so the best-base scan prices
  /// pin-consistent candidates without a hash lookup per key.
  struct KeyEntry {
    AttrSet set;
    uint64_t mass;
    uint64_t rows;
  };
  /// Cached partition keys bucketed by popcount, so the best-base lookup
  /// scans the largest-subset levels first and stops at the first hit
  /// instead of walking the whole cache.
  std::vector<std::vector<KeyEntry>> keys_by_count_;
  /// Sum of the stripped masses in each keys_by_count_ bucket (the work
  /// gate's estimate of a typical base at that level).
  std::vector<uint64_t> mass_by_count_;
  size_t partition_bytes_ = 0;
  uint64_t tick_ = 0;
  /// tick_ at the end of the last catch-up: entries not touched since are
  /// dropped rather than extended at the next one (generational policy).
  uint64_t last_catchup_tick_ = 0;
  /// The disk-tier keys this engine matched at warm start or wrote;
  /// PersistCache erases those its generation supersedes.
  std::unordered_set<PersistKey, PersistKeyHash> disk_keys_;
  EngineStats stats_;
};

}  // namespace ajd

#endif  // AJD_ENGINE_ENTROPY_ENGINE_H_
