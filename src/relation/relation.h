// Relation: an in-memory relation instance — a set of tuples over a Schema.
//
// Values are uint32 codes; string data is dictionary-encoded per attribute
// (see Dictionary). Rows are stored row-major for cache-friendly projection
// and hashing. Relation instances are *sets*: builders deduplicate unless
// multiset semantics is requested explicitly (the paper's empirical
// distribution also covers multisets, so both are supported).
//
// Relations are VERSIONED: every instance carries an epoch counter bumped
// by the batch-append API (AppendBatch / AppendStringBatch). Appends are
// strictly additive — existing rows never move, change value, or disappear
// — so everything derived from the first NumRows() rows at epoch e stays
// valid at every later epoch, and epoch-aware consumers (engine/
// column_store.h, engine/entropy_engine.h) can catch up by processing only
// the appended suffix. A process-unique id (uid) distinguishes "the same
// relation, grown" from "a different relation that happens to reuse the
// address" (engine/analysis_session.h keys engines by address).
//
// CONCURRENCY: appends publish RCU-style, so readers never quiesce.
// Committed row bytes are immutable — the single appender writes only past
// the committed prefix, and when capacity runs out the data moves to a NEW
// buffer published with an atomic pointer store (readers pin the old one
// alive through Snapshot()). Publication order is: row bytes, then
// DistinctPrefixRows() (release, when it rises), then NumRows() (release),
// then epoch() (release). A reader that loads the epoch FIRST and the row
// count second therefore sees at least every row of that epoch, and rows
// [0, NumRows()) are always fully written.
// Appends themselves are single-writer (one appending thread at a time);
// dictionaries, schema domain sizes, and the dedupe index are
// appender-side state with no reader-safe access.
#ifndef AJD_RELATION_RELATION_H_
#define AJD_RELATION_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "relation/attr_set.h"
#include "relation/row_hash.h"
#include "relation/schema.h"
#include "util/status.h"

namespace ajd {

/// A pinned, immutable view of a relation's committed rows, safe to read
/// while the appender keeps appending. `keepalive` holds the storage alive
/// across buffer regrows; `data`/`num_rows` never change after the snapshot
/// is taken, and every row in [0, num_rows) is fully written.
struct RowsSnapshot {
  std::shared_ptr<const std::vector<uint32_t>> keepalive;
  const uint32_t* data = nullptr;
  uint64_t num_rows = 0;
  uint32_t width = 0;

  const uint32_t* Row(uint64_t i) const { return data + i * width; }
  uint32_t At(uint64_t i, uint32_t pos) const { return Row(i)[pos]; }
};

/// Per-attribute dictionary mapping string values to dense codes.
///
/// Storage: each value is stored once, as a std::string in code order.
/// Lookups go through one open-addressing (linear probing) table of 16-byte
/// slots, each holding a code plus the value's first 8 bytes (a shorter
/// value packs all of its bytes), its length (capped at 255) and a 24-bit
/// hash tag. A probe compares inside the slot first, so a value of up to 8
/// bytes — category codes, small integers — resolves without touching the
/// stored string; a longer value is compared in full only after its
/// prefix, length and tag match.
///
/// The table holds codes, never pointers: a copied dictionary copies the
/// values and the table independently and never points into its source.
/// The table always equals the sequential insertion of codes 0..size()-1
/// (growth re-inserts in code order), which is what lets TruncateTo drop a
/// tail of codes by emptying their slots newest-first, with no tombstones.
class Dictionary {
 public:
  /// Returns the code for `value`, inserting it if new. Strong guarantee:
  /// if the insertion throws (allocation failure, a full code space), the
  /// dictionary is unchanged.
  uint32_t Intern(std::string_view value);

  /// Drops every value with code >= `size` (appender-side rollback after a
  /// failed batch: codes are assigned densely in intern order, so the
  /// entries staged by the failed batch are exactly the tail). No-op when
  /// `size` >= size().
  void TruncateTo(uint32_t size);

  /// Returns the code for `value` if already interned.
  std::optional<uint32_t> Lookup(std::string_view value) const;

  /// The string for `code`; aborts if out of range.
  const std::string& ValueOf(uint32_t code) const;

  /// Number of interned values.
  uint32_t size() const { return static_cast<uint32_t>(values_.size()); }

 private:
  /// Marks an empty slot; also one past the largest code handed out.
  static constexpr uint32_t kNoCode = UINT32_MAX;

  struct Slot {
    uint64_t prefix = 0;   ///< first 8 bytes, or all bytes packed
    uint32_t check = 0;    ///< hash tag << 8 | min(length, 255)
    uint32_t code = kNoCode;
  };

  /// A value's probe key: the full hash (home slot) and its slot image.
  struct Key {
    uint64_t hash;
    uint64_t prefix;
    uint32_t check;
  };
  static Key KeyOf(std::string_view value);

  /// Index of the slot holding `value`, or of the empty slot that ends
  /// its probe sequence. The table must be non-empty.
  size_t Probe(const Key& key, std::string_view value) const;

  /// Rebuilds the table with `capacity` slots (a power of two), inserting
  /// codes in order. Leaves the table unchanged if the allocation throws.
  void Rehash(size_t capacity);

  std::vector<std::string> values_;
  std::vector<Slot> slots_;
};

/// The most rows a relation may hold. Partitions (engine/partition.h) index
/// rows as uint32 and require N < UINT32_MAX, so appends stop one short of
/// it.
inline constexpr uint64_t kMaxRelationRows = uint64_t{UINT32_MAX} - 1;

/// True iff a relation holding `committed` rows can take `added` more
/// without passing kMaxRelationRows. The one place the row ceiling's
/// arithmetic lives; overflow-safe for any inputs.
inline bool RowsFit(uint64_t committed, uint64_t added) {
  return committed <= kMaxRelationRows &&
         added <= kMaxRelationRows - committed;
}

/// A relation instance: Schema + N rows of uint32 codes.
class Relation {
 public:
  Relation();

  /// Copies get a FRESH uid: the copy's future appends diverge from the
  /// source's, so sharing identity would let a snapshot restored at a
  /// served address (same uid, same epoch count, different rows) silently
  /// pass the session's identity check and serve stale caches. A copy is
  /// a new relation. (The dedupe row index is not copied; it rebuilds
  /// lazily on the next deduped append.)
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);

  /// Moves carry the uid with the data; the moved-from husk gets a FRESH
  /// uid (and epoch 0), so a session engine keyed to the husk's address can
  /// never mistake it for the relation that moved away.
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  /// Builds a relation from rows (each of schema.size() codes).
  /// Deduplicates rows when `dedupe` (set semantics; the default matches the
  /// paper's relation instances). Domain sizes in the schema are grown to
  /// cover the data.
  static Result<Relation> FromRows(Schema schema,
                                   std::vector<std::vector<uint32_t>> rows,
                                   bool dedupe = true);

  /// The schema.
  const Schema& schema() const { return schema_; }

  /// Number of committed rows, N = |R| (acquire: every row below the
  /// returned count is fully written, even when read concurrently with an
  /// append).
  uint64_t NumRows() const { return num_rows_.load(std::memory_order_acquire); }

  /// Number of attributes.
  uint32_t NumAttrs() const { return schema_.size(); }

  /// Pointer to row `i` (NumAttrs() codes). APPENDER-SIDE / quiesced use
  /// only: the backing buffer can move under a concurrent append. Threads
  /// racing with an appender must read rows through Snapshot().
  const uint32_t* Row(uint64_t i) const {
    return data_->data() + i * NumAttrs();
  }

  /// Value of attribute `pos` in row `i` (same caveat as Row()).
  uint32_t At(uint64_t i, uint32_t pos) const { return Row(i)[pos]; }

  /// Raw row-major data (NumRows() * NumAttrs() codes; same caveat as
  /// Row()).
  const std::vector<uint32_t>& data() const { return *data_; }

  /// Pins the current committed rows for concurrent reading. The snapshot
  /// is immutable: its row count and bytes never change while held, no
  /// matter how many appends land after it is taken.
  RowsSnapshot Snapshot() const;

  /// Data version: 0 at construction, +1 per batch append that actually
  /// added rows. Epoch-aware consumers compare this against the epoch they
  /// last synced to and process only the appended suffix. Published with
  /// release semantics AFTER NumRows(): a reader that loads the epoch first
  /// and the row count second sees at least every row of that epoch.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Process-unique identity of this relation's content lineage (stable
  /// across appends; fresh for every newly built relation). Used by
  /// AnalysisSession to detect a dead relation's address being reused by a
  /// different one.
  uint64_t uid() const { return uid_; }

  /// Appends a batch of code rows, bumping the epoch when at least one row
  /// lands. Existing rows are never touched (the append-only contract that
  /// makes epoch catch-up sound). Domain sizes grow to cover new codes.
  /// With `dedupe`, rows equal to an existing row (or an earlier row of the
  /// same batch) are dropped — set semantics; the membership index is built
  /// on first deduped append (O(N)) and maintained incrementally after.
  /// InvalidArgument if any row's width mismatches the schema.
  ///
  /// ALL-OR-NOTHING (strong guarantee): on ANY failure — width mismatch,
  /// allocation failure mid-batch, injected fault — the relation is
  /// bit-identical to before the call: same rows, same NumRows(), same
  /// epoch, same domain sizes. Allocation failures surface as
  /// CapacityExceeded, never as an exception, and so does a batch whose
  /// landing rows would take NumRows() past kMaxRelationRows (the uint32
  /// row ceiling partitions index with; see RowsFit). (The lazily built
  /// dedupe membership index may be dropped on failure; it rebuilds on the
  /// next deduped append. Until then multiset appends cannot raise
  /// DistinctPrefixRows(); no other read API can tell.)
  Status AppendBatch(const std::vector<std::vector<uint32_t>>& rows,
                     bool dedupe = false);

  /// String form of AppendBatch: each value is interned into the
  /// attribute's dictionary, exactly as RelationBuilder::AddStringRow
  /// does. Dictionaries are created on first use only while the relation
  /// is EMPTY; a non-empty relation whose attribute holds raw codes (no
  /// dictionary) rejects string appends with InvalidArgument — freshly
  /// interned codes would alias the existing code space.
  ///
  /// Same ALL-OR-NOTHING contract as AppendBatch, including the
  /// dictionaries: entries interned by a failed batch are truncated back
  /// out, so a failed call leaves every dictionary bit-identical too. (On
  /// SUCCESS, dedupe-dropped rows may still leave their values interned —
  /// that only grows a dictionary, never the relation's data.)
  Status AppendStringBatch(const std::vector<std::vector<std::string>>& rows,
                           bool dedupe = false);

  /// Row-major form of AppendStringBatch: `fields` holds `rows` rows back
  /// to back, NumAttrs() values each. The views are only read during the
  /// call, so they may point into a caller's scratch buffer (io/csv.cc
  /// hands its block buffer straight through). Same contract otherwise;
  /// the nested-vector form checks row widths and delegates here.
  Status AppendStringBatch(const std::string_view* fields, uint64_t rows,
                           bool dedupe = false);

  /// True iff some row appears more than once (multiset data). O(1) when
  /// DistinctPrefixRows() covers every row; one counting pass otherwise.
  bool HasDuplicateRows() const;

  /// Number of distinct rows (same cost rule as HasDuplicateRows).
  uint64_t NumDistinctRows() const;

  /// The distinct-prefix watermark: the first DistinctPrefixRows() rows are
  /// pairwise distinct. It is a lower bound on what is known, not a count:
  ///   - Build(dedupe = true) over at least one attribute sets it to N;
  ///     Build(dedupe = false) leaves it at 0, even over distinct rows.
  ///   - A successful append raises it to the new row count when the
  ///     dedupe row index exists and counts that many distinct rows. The
  ///     first deduped append (into an empty relation too) builds the
  ///     index, and later deduped AND multiset appends keep it exact, so a
  ///     multiset append of a repeated row leaves the watermark where it
  ///     was.
  ///   - It never falls (rows never change). Copies keep it, moves carry
  ///     it (the husk reads 0), a failed append leaves it as it was.
  /// Safe concurrently with an append: it is release-stored before
  /// NumRows(), so it may briefly exceed NumRows(). A reader that takes a
  /// Snapshot() and then loads the watermark knows the first min(both)
  /// rows of the snapshot are distinct.
  uint64_t DistinctPrefixRows() const {
    return distinct_prefix_rows_.load(std::memory_order_acquire);
  }

  /// True iff row `r` (NumAttrs() codes) is present.
  bool ContainsRow(const uint32_t* row) const;

  /// Per-attribute dictionaries (empty for purely numeric relations).
  /// dict(i) may be nullptr when attribute i was never interned.
  const Dictionary* dict(uint32_t pos) const {
    return pos < dicts_.size() && dicts_[pos].has_value() ? &*dicts_[pos]
                                                          : nullptr;
  }

  /// Installs (or replaces) the dictionary for attribute `pos`. Used by
  /// operators to propagate dictionaries to derived relations.
  void SetDict(uint32_t pos, Dictionary d);

  /// Renders row `i` using dictionaries when available.
  std::string RowToString(uint64_t i) const;

  /// Multi-line preview of up to `max_rows` rows for debugging/examples.
  std::string ToString(uint64_t max_rows = 20) const;

 private:
  friend class RelationBuilder;

  /// Appends pre-validated code rows (flat, width-checked by the callers),
  /// handling dedupe, domain growth, and the epoch bump. Strong guarantee:
  /// a mid-batch failure — including a batch that would take NumRows()
  /// past kMaxRelationRows — truncates staged bytes back to the committed
  /// prefix (never published) and returns CapacityExceeded.
  Status AppendCodesUnchecked(const std::vector<uint32_t>& flat,
                              uint64_t rows, bool dedupe);

  /// Raises the distinct-prefix watermark to `rows` when the dedupe row
  /// index exists and counts `rows` distinct rows. Appender-side.
  void RaiseDistinctPrefix(uint64_t rows);

  Schema schema_;
  /// Row-major code storage behind a shared pointer so concurrent readers
  /// can pin the buffer across capacity regrows: the appender writes new
  /// rows in place while capacity lasts (committed bytes are never
  /// touched), and publishes a NEW buffer with std::atomic_store when it
  /// must regrow. Never null.
  std::shared_ptr<std::vector<uint32_t>> data_;
  std::atomic<uint64_t> num_rows_{0};
  /// See DistinctPrefixRows(). Stored (release) before num_rows_.
  std::atomic<uint64_t> distinct_prefix_rows_{0};
  std::vector<std::optional<Dictionary>> dicts_;
  std::atomic<uint64_t> epoch_{0};
  uint64_t uid_ = 0;
  /// Exact row-membership index for deduped appends; built lazily on the
  /// first AppendBatch(dedupe=true) and maintained incrementally after.
  std::unique_ptr<TupleCounter> row_index_;
};

/// Incremental construction of a Relation.
///
///   RelationBuilder b(schema);
///   b.AddRow({0, 1, 2});
///   b.AddStringRow({"ann", "db", "ta"});   // dictionary-encodes
///   Relation r = std::move(b).Build(/*dedupe=*/true);
class RelationBuilder {
 public:
  explicit RelationBuilder(Schema schema);

  /// Appends a row of codes; aborts if the width mismatches the schema.
  void AddRow(const std::vector<uint32_t>& row);

  /// Appends a row of codes from a raw pointer (schema width codes).
  void AddRowPtr(const uint32_t* row);

  /// Appends a row of strings, interning each into its dictionary; aborts
  /// if the width mismatches the schema.
  void AddStringRow(const std::vector<std::string>& row);

  /// Appends `rows` rows given back to back (schema width values each),
  /// interning each value.
  void AddStringRows(const std::string_view* fields, uint64_t rows);

  /// Number of rows added so far.
  uint64_t NumRows() const { return num_rows_; }

  /// Reserves space for `rows` rows.
  void Reserve(uint64_t rows);

  /// Finalizes. Deduplicates when `dedupe`, which also sets the built
  /// relation's DistinctPrefixRows() to its row count. Grows schema domain
  /// sizes to cover observed codes.
  Relation Build(bool dedupe = true) &&;

 private:
  Schema schema_;
  std::vector<uint32_t> data_;
  uint64_t num_rows_ = 0;
  std::vector<std::optional<Dictionary>> dicts_;
};

}  // namespace ajd

#endif  // AJD_RELATION_RELATION_H_
