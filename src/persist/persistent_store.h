// PersistentCacheStore: the crash-safe on-disk tier under the engine's
// in-memory entropy cache (engine/entropy_engine.h).
//
// The store memoizes entropy VALUES keyed by (relation content
// fingerprint, AttrSet, row count), the key that stays meaningful across
// process lifetimes (relation/fingerprint.h). Theorem 3.2 makes J(T) a
// sum of entropies, and each H(S) is a pure function of (relation prefix,
// attribute set), so a value persisted at row count M serves every later
// process whose relation has the same first M rows. Partitions are never
// written: a process that has grown past M recomputes them cold, which
// costs no more than reading and extending them from disk would.
//
// On-disk layout (one directory per store): a single file,
//
//   MANIFEST   append-only journal. 8-byte magic, then records framed
//              [u32 len][u32 crc32c][payload]; record kinds: put
//              (fingerprint, attribute mask, rows, H) and erase
//              (fingerprint, attribute mask, rows). The journal is the
//              whole store.
//
// Write discipline (what makes kill -9 at any byte recoverable):
//   1. a Put or Erase batch is one write() of back-to-back framed records
//      (one fsync with fsync_writes); a torn batch is detected by the first
//      record CRC that fails at the next open and the tail truncated away —
//      every record before it, including whole records of the torn batch,
//      replays intact;
//   2. compaction rewrites live records to MANIFEST.tmp, fsyncs, and
//      renames over the old journal — the classic atomic-replace; a crash
//      before the rename leaves the old journal authoritative and the tmp
//      is removed at open.
//
// Failure semantics: "degrade, never corrupt", across processes. Damage
// only ever DROPS records (a torn or foreign tail, a journal of another
// format), and a dropped value is computed cold by the engine — a damaged
// store can cost time, never change an answer. All methods return
// Status/Result, never throw (out-of-memory excepted); no failure aborts
// the process. An in-process write failure tidies up (truncates the torn
// tail back) so the store object stays usable; if even the tidy-up fails
// the store goes read-only until Compact() rebuilds the journal.
//
// Format history: AJDCACH2 stores also held partition blobs under
// blobs/. Open reads any other magic as a foreign journal, starts empty,
// and removes a leftover blobs/ directory.
//
// Fault injection: persist/manifest_append and persist/compact_rename
// (util/failpoint.h). The append site is torn-write capable — see
// persist_internal below — which is how the crash-recovery soak simulates
// kill -9 at randomized byte offsets.
//
// Thread safety: every method may be called concurrently; one internal
// mutex guards the in-memory index, journal appends and compaction. The
// store is a LEAF in the lock order — it never calls back into engine or
// arbiter code — so the engine may use it while holding its own mutex.
#ifndef AJD_PERSIST_PERSISTENT_STORE_H_
#define AJD_PERSIST_PERSISTENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/attr_set.h"
#include "util/status.h"

namespace ajd {

/// Tuning knobs for a PersistentCacheStore.
struct PersistOptions {
  /// fsync after each journal append. Turning it off trades the
  /// durability of the most recent writes for speed; recovery safety (no
  /// corruption, torn tails truncated) is unaffected.
  bool fsync_writes = true;
};

/// The key of a persisted value.
struct PersistKey {
  uint64_t fingerprint = 0;  ///< relation content fingerprint at `rows`
  AttrSet attrs;             ///< the attribute set the entry covers
  uint64_t rows = 0;         ///< relation prefix length the entry covers
  bool operator==(const PersistKey& o) const {
    return fingerprint == o.fingerprint && attrs == o.attrs && rows == o.rows;
  }
};

struct PersistKeyHash {
  size_t operator()(const PersistKey& k) const;
};

/// One persisted entry — everything a journal put record holds.
struct PersistedEntryMeta : PersistKey {
  double entropy = 0.0;  ///< H(attrs) over the first `rows` rows
};

/// Monotonic counters (lifetime of the store OBJECT; open-time recovery
/// counters describe the Open() that produced it).
struct PersistStats {
  uint64_t entries = 0;          ///< live entries right now
  uint64_t puts = 0;             ///< entries written
  uint64_t dedup_puts = 0;       ///< entries skipped: identical one resident
  uint64_t put_failures = 0;     ///< entries of Put batches that failed
  uint64_t erases = 0;           ///< entries erased
  uint64_t lookups = 0;          ///< LookupExact calls
  uint64_t hits = 0;             ///< LookupExact calls that found an entry
  uint64_t compactions = 0;      ///< successful Compact() calls
  uint64_t torn_tail_events = 0;   ///< manifest tails truncated at open
  uint64_t torn_tail_bytes = 0;    ///< bytes those truncations dropped
  uint64_t tmp_files_removed = 0;  ///< crashed compaction tmps removed
};

/// The on-disk store. Create through Open(); share one instance per cache
/// directory (AnalysisSession/EngineOptions take a shared_ptr).
class PersistentCacheStore {
 public:
  /// Opens (creating if absent) the store in `dir`, running recovery:
  /// removes a crashed compaction's tmp journal and a previous format's
  /// blobs/ directory, truncates a torn manifest tail, and replays the
  /// journal into the in-memory index. Never aborts on damaged input —
  /// damage is dropped and counted (Stats()). IoError only when the
  /// directory itself cannot be created or the journal cannot be opened
  /// for appending.
  static Result<std::shared_ptr<PersistentCacheStore>> Open(
      const std::string& dir, const PersistOptions& options = {});

  ~PersistentCacheStore();

  PersistentCacheStore(const PersistentCacheStore&) = delete;
  PersistentCacheStore& operator=(const PersistentCacheStore&) = delete;

  /// Persists a batch of entries as ONE journal append. An entry under
  /// the same (fingerprint, attrs, rows) key is REPLACED, unless it holds
  /// the same value bits, in which case it is skipped (dedup_puts). On
  /// failure the index is unchanged and no entry of the batch counts as
  /// persisted (a later open may still replay whole records a crash
  /// landed).
  Status Put(const std::vector<PersistedEntryMeta>& entries);

  /// Exact-key probe of the in-memory index (no I/O). True on hit, with
  /// the stored value in `*entropy` when non-null.
  bool LookupExact(const PersistKey& key, double* entropy);

  /// Every live entry (the warm-restart scan; the engine filters by
  /// fingerprint).
  std::vector<PersistedEntryMeta> AllEntries() const;

  /// Removes the entries under `keys` as ONE journal append; absent keys
  /// are skipped. On failure the index is unchanged.
  Status Erase(const std::vector<PersistKey>& keys);

  /// Rewrites the journal to exactly the live entries (temp-write + fsync +
  /// atomic rename) and clears the read-only flag a failed tidy-up may have
  /// set. The journal only grows between compactions; call this at
  /// maintenance points (tools/ajdcache scrub does).
  Status Compact();

  PersistStats Stats() const;
  size_t NumEntries() const;
  const std::string& dir() const { return dir_; }

 private:
  PersistentCacheStore(std::string dir, PersistOptions options);

  /// Appends already-framed records in one write(), tidying a failed
  /// append back to the last complete record.
  Status AppendLocked(const std::string& frames);
  Status OpenManifestLocked();

  const std::string dir_;
  const std::string manifest_path_;
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
  std::unordered_map<PersistKey, PersistedEntryMeta, PersistKeyHash> index_;
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
