// ColumnStore: a column-major, dense-coded view of a Relation, shared by
// every entropy computation over that relation.
//
// The row-major Relation is ideal for projection and joins, but entropy
// workloads (J-measure, Theorem 2.2 sandwiches, miner scoring) touch
// one attribute at a time across ALL rows. The store transposes the data
// and remaps each attribute's value codes to a dense range [0, cardinality)
// so that partition refinement (engine/partition.h) can use counting-sort
// style scratch arrays instead of hashing.
//
// The store is EPOCH-AWARE: relations grow by batch appends
// (relation/relation.h), and the store follows without rebuilding. It
// serves columns as of its synced row count; CatchUp()/CatchUpTo() advance
// that count, after which each built column extends itself by densifying
// only the appended rows (the per-column raw->dense remap survives across
// epochs, so catch-up is O(delta) per column, not O(N)). Dense codes are
// assigned in first-occurrence order, so the extended column is
// bit-identical to a cold densification of the full relation — the
// property every incremental result above this layer bottoms out in.
//
// CONCURRENCY: columns are served as immutable VIEWS published RCU-style.
// Extension writes the new tail into growable owner-side buffers (never
// mutating bytes a published view can see; regrows move to a fresh buffer
// kept alive by the old views) and then publishes a new frozen view with
// an atomic shared_ptr store. Readers pinned at an older row count keep
// reading their prefix concurrently with extension — ColumnAt() derives a
// consistent prefix view for ANY pinned row count from the same grown
// buffers, because first-occurrence ordering makes every prefix of the
// grown codes exactly the cold densification of that prefix.
#ifndef AJD_ENGINE_COLUMN_STORE_H_
#define AJD_ENGINE_COLUMN_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "relation/relation.h"

namespace ajd {

/// Borrowed, immutable view of a code array (a frozen prefix of a column's
/// grown storage). Size and bytes never change for the lifetime of the
/// view; the owning Column's `owner` field keeps the storage alive.
class CodeSpan {
 public:
  CodeSpan() = default;
  CodeSpan(const uint32_t* data, size_t size) : data_(data), size_(size) {}

  const uint32_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t operator[](size_t i) const { return data_[i]; }
  const uint32_t* begin() const { return data_; }
  const uint32_t* end() const { return data_ + size_; }

  /// Deep element-wise equality (mirrors the std::vector comparisons the
  /// view replaced; tests compare incremental views against cold ones).
  friend bool operator==(const CodeSpan& a, const CodeSpan& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const CodeSpan& a, const CodeSpan& b) {
    return !(a == b);
  }
  friend std::ostream& operator<<(std::ostream& os, const CodeSpan& s) {
    os << "CodeSpan{";
    for (size_t i = 0; i < s.size_ && i < 16; ++i) {
      if (i > 0) os << ", ";
      os << s.data_[i];
    }
    if (s.size_ > 16) os << ", ...";
    return os << "} (" << s.size_ << " codes)";
  }

 private:
  const uint32_t* data_ = nullptr;
  size_t size_ = 0;
};

/// One dense-coded column: codes[i] in [0, cardinality) for every row i.
/// Dense codes are assigned in first-occurrence order; they preserve
/// equality (two rows share a dense code iff they share the raw value),
/// which is all entropy computations need.
///
/// A Column is a cheap VALUE: two spans, a cardinality frozen at the
/// column's row count, and a shared_ptr keeping the underlying storage
/// alive. Copy it freely; the bytes it views are immutable.
struct Column {
  CodeSpan codes;
  uint32_t cardinality = 0;
  /// first_row[c] = the row at which dense code c first appeared (strictly
  /// ascending — which is also what lets the store derive the cardinality
  /// of ANY prefix by binary search). Filled by the store's densification;
  /// left EMPTY by MakeOwnedColumn-without-first_row.
  /// Partition delta-extension reads it to locate the lone old row of a
  /// group a new row just joined.
  CodeSpan first_row;
  /// Keeps the viewed storage alive; opaque to readers.
  std::shared_ptr<const void> owner;
};

/// Builds a self-owning Column from materialized vectors. The standalone
/// construction path for tests and benchmarks.
Column MakeOwnedColumn(std::vector<uint32_t> codes, uint32_t cardinality,
                       std::vector<uint32_t> first_row = {});

/// Column-major view of a Relation. The relation must outlive the store.
///
/// Columns densify lazily on first touch (thread-safe), so constructing a
/// store — and thus a throwaway EntropyCalculator — costs nothing for the
/// attributes a workload never asks about.
///
/// Epoch contract: column() serves data as of SyncedRows(), even if the
/// relation has grown since. ColumnAt() serves a view pinned at ANY row
/// count <= relation().NumRows(), concurrently with extension: readers of
/// an old pin and the catch-up extending toward a new one never block each
/// other or race on bytes. CatchUpTo() only advances the synced
/// frontier (a single release store); the engine's catch-up owner calls it.
/// The relation must never shrink.
class ColumnStore {
 public:
  explicit ColumnStore(const Relation* r);

  /// The underlying relation.
  const Relation& relation() const { return *r_; }

  /// Number of rows in the synced view (<= relation().NumRows() between an
  /// append and the next CatchUp).
  uint64_t NumRows() const {
    return synced_rows_.load(std::memory_order_acquire);
  }

  /// Rows the store has synced to (== NumRows(); spelled out for callers
  /// reasoning about epochs).
  uint64_t SyncedRows() const { return NumRows(); }

  /// Number of attributes (== relation().NumAttrs()).
  uint32_t NumAttrs() const { return r_->NumAttrs(); }

  /// Advances the synced row count to the relation's current size. Built
  /// columns extend lazily on their next access. Safe to call
  /// while readers hold pinned views (they keep their pins); only one
  /// catch-up owner should call it at a time (the engine's catch-up mutex
  /// provides that). Aborts if the relation shrank (destroying a relation
  /// out from under its store is the bug this catches).
  void CatchUp();

  /// Advances the synced row count to `rows` (no-op when already past it).
  /// Same ownership rules as CatchUp().
  void CatchUpTo(uint64_t rows);

  /// The dense column for attribute `pos` as of the synced row count,
  /// built on first use and extended after a CatchUp. Thread-safe; the
  /// returned value stays consistent no matter what the store does next.
  Column column(uint32_t pos) const;

  /// The dense column for attribute `pos` pinned at exactly `rows` rows
  /// (`rows` <= relation().NumRows()). Bit-identical to a cold
  /// densification of the first `rows` rows. Thread-safe and safe
  /// concurrently with extension toward any other row count.
  Column ColumnAt(uint32_t pos, uint64_t rows) const;

 private:
  /// Growable owner-side storage one column's views alias into. In-place
  /// growth only ever writes past the longest published prefix; when
  /// capacity runs out the storage moves to a fresh ColumnBuffers and old
  /// views keep the old one alive through their Column::owner.
  struct ColumnBuffers {
    std::vector<uint32_t> codes;
    std::vector<uint32_t> first_row;
  };

  /// Everything one column needs to grow across epochs: the growable
  /// buffers, the surviving raw->dense remap (direct table while the raw
  /// code range stays comparable to the row count, hash map past that),
  /// and the published frozen views.
  struct ColumnState {
    mutable std::mutex mu;
    /// Owner-side storage (guarded by mu for growth).
    std::shared_ptr<ColumnBuffers> buffers;
    /// Distinct codes among the built rows; mirrors the published view's
    /// cardinality. Guarded by mu.
    uint32_t cardinality = 0;
    /// Rows densified so far; release-stored after the codes are fully
    /// written and the view republished.
    std::atomic<uint64_t> built_rows{0};
    bool ever_built = false;
    std::vector<uint32_t> direct_remap;  // raw -> dense, UINT32_MAX = unseen
    std::unordered_map<uint32_t, uint32_t> hash_remap;
    bool use_direct = false;

    /// Published frozen view over the built rows (std::atomic_load/store
    /// access only outside mu).
    std::shared_ptr<const Column> view;
    /// One-slot cache of the most recently derived pinned-prefix view
    /// (atomic access). Keeps steady single-pin readers allocation-free.
    mutable std::shared_ptr<const Column> pinned_view;
  };

  /// Densifies rows [st.built_rows, target) into st.buffers and publishes
  /// a new frozen view. Requires st.mu.
  void ExtendColumnLocked(ColumnState& st, uint32_t pos,
                          uint64_t target) const;

  /// The frozen view for `pos` covering exactly `rows` rows, building or
  /// extending the column as needed and deriving a prefix view when the
  /// built frontier is past `rows`.
  std::shared_ptr<const Column> ViewAt(uint32_t pos, uint64_t rows) const;

  const Relation* r_;
  std::atomic<uint64_t> synced_rows_{0};
  std::unique_ptr<ColumnState[]> states_;
};

}  // namespace ajd

#endif  // AJD_ENGINE_COLUMN_STORE_H_
