// PersistentCacheStore: the crash-safe on-disk tier under the engine's
// in-memory entropy/partition cache (engine/entropy_engine.h).
//
// The store memoizes pure computations — entropy values and stripped
// partition payloads — keyed by (relation content fingerprint, AttrSet, row
// count), the key that stays meaningful across process lifetimes
// (relation/fingerprint.h). Because relations grow by appends only, a
// persisted entry at row count M is a valid prefix FOREVER: a restarted
// process reloads it and delta-extends through the engine's bit-identical
// extension machinery instead of re-paying the cold build.
//
// On-disk layout (one directory per store):
//
//   MANIFEST         append-only journal of entry metadata. 8-byte magic,
//                    then records framed [u32 len][u32 crc32c][payload];
//                    record kinds: put / erase / quarantine. The journal is
//                    the source of truth — a blob without a manifest record
//                    does not exist.
//   blobs/b<id>.blob one immutable file per partition payload: magic,
//                    version, payload length, CRC-32C, then the raw
//                    stripped arrays. Written to b<id>.blob.tmp, fsynced,
//                    then renamed into place.
//
// Write discipline (what makes kill -9 at any byte recoverable):
//   1. blob first, manifest record second — a crash between the two leaves
//      an unreferenced blob, garbage-collected at the next open;
//   2. manifest appends are single write()s; a torn append is detected by
//      the record CRC at the next open and the tail truncated away (every
//      record before it replays intact);
//   3. compaction rewrites live records to MANIFEST.tmp, fsyncs, and
//      renames over the old journal — the classic atomic-replace; a crash
//      before the rename leaves the old journal authoritative and the tmp
//      is removed at open.
//
// Failure semantics: "degrade, never corrupt", across processes. Every blob
// is CRC-verified on load; a corrupt, truncated, or unreadable blob is
// QUARANTINED (file renamed to .quarantined, entry dropped, counter
// bumped) and the caller falls back to cold compute — a bad cache entry can
// cost time, never change an answer. All methods return Status/Result,
// never throw (out-of-memory excepted); no failure aborts the process. An
// in-process write failure tidies up (truncates the torn tail back, removes
// the tmp) so the store object stays usable; if even the tidy-up fails the
// store goes read-only until Compact() rebuilds the journal.
//
// Fault injection: persist/manifest_append, persist/blob_write,
// persist/blob_read, persist/compact_rename (util/failpoint.h). The write
// sites are torn-write capable — see persist_internal below — which is how
// the crash-recovery soak simulates kill -9 at randomized byte offsets.
//
// Thread safety: every method may be called concurrently. One internal
// mutex guards the in-memory index, blob-id reservation, journal appends,
// compaction (journal rewrite and blob sweep) and quarantine renames.
// Blob reads, blob writes and their CRCs run outside it, so puts and loads
// of different entries proceed in parallel: Put reserves a blob id under
// the lock, writes the blob without it, and appends the journal record and
// updates the index under it again (the last commit of a key wins; the
// blob it replaces is unlinked). LoadPayload reads and verifies without the
// lock and quarantines only when the entry still maps to the blob it read.
// Compact never collects a blob whose write is still in flight. The store
// is a LEAF in the lock order — it never calls back into engine or arbiter
// code — so the engine may use it while holding its own mutex (lock order:
// arbiter -> engine -> store).
#ifndef AJD_PERSIST_PERSISTENT_STORE_H_
#define AJD_PERSIST_PERSISTENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relation/attr_set.h"
#include "util/status.h"

namespace ajd {

/// Tuning knobs for a PersistentCacheStore.
struct PersistOptions {
  /// fsync after manifest appends and blob writes. Turning it off trades
  /// the durability of the most recent writes for speed; recovery safety
  /// (no corruption, torn tails truncated) is unaffected.
  bool fsync_writes = true;
};

/// Metadata of one persisted entry — everything the manifest journal
/// records about it. `has_payload` entries additionally own a blob file
/// holding the partition's raw stripped arrays.
struct PersistedEntryMeta {
  uint64_t fingerprint = 0;  ///< relation content fingerprint at `rows`
  AttrSet attrs;             ///< the attribute set the entry covers
  uint64_t rows = 0;         ///< relation prefix length the entry covers
  bool has_entropy = false;  ///< `entropy` holds a served value
  double entropy = 0.0;      ///< H(attrs) over the first `rows` rows
  /// The build recipe: dense columns applied from scratch, in order
  /// (engine/entropy_engine.h CachedPartition::chain), so a reloaded
  /// partition can be delta-extended exactly like a resident one.
  std::vector<uint32_t> chain;
  /// Cardinality of chain.back()'s column at `rows` (the engine's
  /// kernel-stability check for delta extension).
  uint32_t last_col_card = 0;
  bool has_payload = false;  ///< a partition blob exists for this entry
  uint64_t blob_id = 0;      ///< blob file id (meaningful iff has_payload)
};

/// A partition's serialized form: the canonical flat arrays from
/// Partition::FlattenStripped (chunked partitions flatten on the way out,
/// so blobs are layout-independent). Rebuilt (validated) through
/// Partition::FromStripped.
struct PartitionPayload {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> offsets;
};

/// Monotonic counters (lifetime of the store OBJECT; open-time recovery
/// counters describe the Open() that produced it).
struct PersistStats {
  uint64_t entries = 0;          ///< live entries right now
  uint64_t puts = 0;             ///< entries written (journal + blob)
  uint64_t dedup_puts = 0;       ///< puts skipped: identical entry resident
  uint64_t put_failures = 0;     ///< puts that failed (injected or real I/O)
  uint64_t erases = 0;           ///< entries erased
  uint64_t lookups = 0;          ///< LookupExact calls
  uint64_t hits = 0;             ///< LookupExact calls that found an entry
  uint64_t payload_loads = 0;    ///< blob loads attempted
  uint64_t payload_load_failures = 0;  ///< blob loads that failed
  uint64_t quarantined_blobs = 0;      ///< blobs quarantined by this object
  uint64_t compactions = 0;      ///< successful Compact() calls
  // Open-time recovery accounting: with the quarantine counter above, these
  // account for every entry/byte the store ever gave up on.
  uint64_t torn_tail_events = 0;   ///< manifest tails truncated at open
  uint64_t torn_tail_bytes = 0;    ///< bytes those truncations dropped
  uint64_t orphan_blobs_removed = 0;  ///< unreferenced blobs GC'd at open
  uint64_t tmp_files_removed = 0;  ///< crashed .tmp files removed at open
  uint64_t missing_blob_entries_dropped = 0;  ///< entries whose blob file
                                              ///< was gone at open
};

/// The on-disk store. Create through Open(); share one instance per cache
/// directory (AnalysisSession/EngineOptions take a shared_ptr).
class PersistentCacheStore {
 public:
  /// Opens (creating if absent) the store in `dir`, running recovery:
  /// removes crashed tmp files, truncates a torn manifest tail, replays the
  /// journal into the in-memory index, drops entries whose blob file is
  /// missing, and garbage-collects unreferenced blobs. Never aborts on
  /// damaged input — damage is dropped and counted (Stats()). IoError only
  /// when the directory itself cannot be created or the journal cannot be
  /// opened for appending.
  static Result<std::shared_ptr<PersistentCacheStore>> Open(
      const std::string& dir, const PersistOptions& options = {});

  ~PersistentCacheStore();

  PersistentCacheStore(const PersistentCacheStore&) = delete;
  PersistentCacheStore& operator=(const PersistentCacheStore&) = delete;

  /// Persists one entry (meta.has_payload/blob_id are outputs of the store,
  /// ignored on input; pass `payload` to attach a partition blob). An entry
  /// under the same (fingerprint, attrs, rows) key is REPLACED — unless the
  /// resident entry already carries everything this put would write, in
  /// which case the put is a counted no-op (spill-on-evict re-spills hot
  /// entries; rewriting identical bytes would churn the journal).
  /// Blob-then-manifest write order; on any failure the index is unchanged
  /// and the entry simply stays unpersisted.
  Status Put(const PersistedEntryMeta& meta, const PartitionPayload* payload);

  /// Exact-key probe of the in-memory index (no I/O). True on hit, with
  /// `*out` filled.
  bool LookupExact(uint64_t fingerprint, AttrSet attrs, uint64_t rows,
                   PersistedEntryMeta* out);

  /// Every live entry (the warm-restart scan; the engine filters by
  /// fingerprint chain).
  std::vector<PersistedEntryMeta> AllEntries() const;

  /// Loads and CRC-verifies the blob of an entry previously returned by
  /// LookupExact/AllEntries. NotFound when the entry no longer exists or
  /// has no payload, or a concurrent Put or Erase replaced it mid-read;
  /// IoError when the blob fails verification — in which case the blob
  /// has been QUARANTINED (renamed .quarantined, entry dropped, counter
  /// bumped) and the caller must compute cold.
  Result<PartitionPayload> LoadPayload(const PersistedEntryMeta& meta);

  /// Removes an entry (journal record + blob file). OK when absent.
  Status Erase(uint64_t fingerprint, AttrSet attrs, uint64_t rows);

  /// Rewrites the journal to exactly the live entries (temp-write + fsync +
  /// atomic rename), removes blobs no live entry references, and clears the
  /// read-only flag a failed tidy-up may have set. The journal only grows
  /// between compactions; call this at maintenance points (tools/ajdcache
  /// scrub does).
  Status Compact();

  PersistStats Stats() const;
  size_t NumEntries() const;
  const std::string& dir() const { return dir_; }

 private:
  struct Key {
    uint64_t fingerprint;
    uint64_t mask;
    uint64_t rows;
    bool operator==(const Key& o) const {
      return fingerprint == o.fingerprint && mask == o.mask && rows == o.rows;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  PersistentCacheStore(std::string dir, PersistOptions options);

  Status AppendRecordLocked(const std::string& payload);
  /// Writes blob `blob_id` (tmp file, fsync, rename). Called without mu_.
  Status WriteBlob(uint64_t blob_id, const PartitionPayload& payload) const;
  /// Quarantines `key`'s blob — iff the entry still maps to `blob_id` (a
  /// concurrent Put or Erase may have replaced it since the caller looked).
  /// True when it did.
  bool QuarantineBlobLocked(const Key& key, uint64_t blob_id);
  std::string BlobPath(uint64_t blob_id) const;
  Status OpenManifestLocked();

  const std::string dir_;
  const std::string manifest_path_;
  const std::string blobs_dir_;
  const PersistOptions options_;

  mutable std::mutex mu_;
  int manifest_fd_ = -1;
  uint64_t manifest_size_ = 0;
  /// Set when an append failure could not be tidied up (or a simulated
  /// crash left the journal torn): further writes would append after
  /// garbage and be silently lost at the next open's tail truncation, so
  /// they are refused (FailedPrecondition) until Compact() rebuilds the
  /// journal — reads keep working throughout.
  bool read_only_ = false;
  uint64_t next_blob_id_ = 1;
  /// Blob ids reserved by a Put whose write has not committed yet; Compact
  /// must not collect their files.
  std::unordered_set<uint64_t> in_flight_;
  uint64_t dead_records_ = 0;
  std::unordered_map<Key, PersistedEntryMeta, KeyHash> index_;
  PersistStats stats_;
};

namespace persist_internal {
/// Test hooks for the torn-write crash simulator. `SetTornWriteBytes(k)`
/// makes the next firing write-path failpoint write only (k mod size+1)
/// bytes of its buffer; `SetCrashSimulation(true)` makes failing write
/// paths skip their tidy-up, leaving files exactly as a kill -9 would.
/// Both are inert unless a persist failpoint actually fires (i.e. outside
/// -DAJD_ENABLE_FAILPOINTS builds they are dead knobs).
void SetTornWriteBytes(uint64_t bytes);
void SetCrashSimulation(bool on);
}  // namespace persist_internal

}  // namespace ajd

#endif  // AJD_PERSIST_PERSISTENT_STORE_H_
