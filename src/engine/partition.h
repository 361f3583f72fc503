// Partition: a stripped partition (position-list index, PLI) — the grouping
// of row indices induced by an attribute set, with singleton groups dropped.
//
// This is the representation behind fast FD/entropy discovery (Huhtala et
// al.'s TANE, Papenbrock's Metanome): refining a cached partition of A by
// the dense column of attribute b yields the partition of A u {b} touching
// only the rows that still share an A-value, instead of re-hashing all
// N * |A u {b}| words. Singleton groups carry no information for entropy
// (c ln c = 0 for c = 1) and no refinement work, so they are never stored.
//
// H(attrs) = ln N - (1/N) * sum over stripped blocks of c ln c, evaluated
// from the block-size histogram (engine/block_histogram.h) exactly as
// info/entropy.cc evaluates it.
#ifndef AJD_ENGINE_PARTITION_H_
#define AJD_ENGINE_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/column_store.h"
#include "engine/refine_kernels.h"
#include "util/status.h"

namespace ajd {

// PartitionDelta (the cross-epoch correspondence metadata consumed by the
// delta-extension methods below) lives in engine/refine_kernels.h: the
// refinement kernels emit it at build time, so the first catch-up after a
// cold build is scan-free.

/// A stripped partition of row indices. Value type; refinement returns a
/// fresh partition and never mutates its input, so cached partitions can be
/// shared across threads read-only.
///
/// Invariant: rows within every block are in ascending order (every factory
/// scans rows ascending, and refinement preserves relative order). The
/// sort-based refinement kernel relies on it.
///
/// --- Storage: flat vs chunked -------------------------------------------
///
/// Two physical layouts back the same logical partition:
///
///   flat    — one rows array plus block-boundary offsets, exact-sized with
///             zero slack. Every factory (Trivial/OfColumn/RefinedBy*/
///             FromStripped) and every copy-form extension produces this:
///             refinement stages into thread-local buffers and copies out
///             exact-sized, so cached partitions carry no dead capacity and
///             the arbiter's byte accounting charges only live rows.
///   chunked — entered the first time a partition is extended IN PLACE.
///             Rows live in append-only chunks (each chunk's storage is
///             allocated once and never moves, so block pointers stay
///             stable); each block is described by a 20-byte header
///             (chunk, offset, size, cap) kept in a dense side array in
///             logical block order. A block's chunk region reserves
///             cap >= size words — the header plus implicitly reserved
///             trailing storage, capacity fixed at allocation time, the
///             classic inline-capacity allocation shape — so appended rows
///             land in the existing tail slack and extension writes only
///             the changed region, no matter how the append stream is
///             distributed over the key space.
///
/// Tail-slack policy: adoption from flat lays every block out with its full
/// slack up front (cap = size + size/2 + 2 — one organized O(mass) copy, so
/// a uniform first batch doesn't relocate every block at once); a block
/// that later outgrows its cap relocates within the chunks to the same
/// geometric cap, so a repeatedly-growing block relocates O(log growth)
/// times total. Relocation strands the old region; once strands push the
/// held words past twice the live mass BEYOND the freshly-adopted baseline
/// (~1.5x mass + 2 words/block) the partition drops back to the canonical
/// flat layout (copy-out staging reclaims all slack at once), and the next
/// in-place extension re-adopts chunked form. MemoryBytes() always reports
/// the true footprint, slack and strands included, so the cache arbiter
/// charges what is actually held.
///
/// Kernels never see the layout: View() materializes the partition as
/// maximal contiguous runs of blocks (a flat partition is one run aliasing
/// its own arrays at zero cost), and the refinement kernels iterate runs
/// outer / blocks inner, emitting exactly the flat iteration's output.
class Partition {
 public:
  /// The trivial partition {all rows}: what the empty attribute set induces.
  static Partition Trivial(uint64_t num_rows);

  /// The partition induced by one dense column. Counting sort (O(N + card))
  /// while the cardinality is below the row count; a row-sized sort path
  /// past that, so near-key columns stop allocating two cardinality-sized
  /// vectors just to strip almost every row.
  static Partition OfColumn(const Column& col);

  /// The partition induced by this partition's attribute set plus the
  /// column's attribute: splits every block by the column's dense codes.
  /// The refinement kernel is chosen per call from the column cardinality
  /// and the stripped mass (engine/refine_kernels.h); every kernel yields
  /// bit-identical output. The two-argument form forces a kernel (tests
  /// and benches).
  Partition RefinedBy(const Column& col) const {
    return RefinedBy(col, RefineKernel::kAuto);
  }
  Partition RefinedBy(const Column& col, RefineKernel kernel) const {
    return RefinedBy(col, kernel, nullptr);
  }
  /// Three-argument form additionally emits the parent->child
  /// PartitionDelta at build time (one entry per block of `this`, in block
  /// order), making the FIRST epoch catch-up of the result scan-free.
  Partition RefinedBy(const Column& col, RefineKernel kernel,
                      PartitionDelta* delta_out) const;

  /// H of the refined grouping WITHOUT materializing it: a single
  /// count-only pass over the stripped rows. Equivalent to
  /// RefinedBy(col).EntropyNats(num_rows) at roughly half the cost — the
  /// right call for the last step of a refinement chain, where only the
  /// entropy (not a reusable partition) is needed.
  double RefinedEntropy(const Column& col, uint64_t num_rows) const {
    return RefinedEntropy(col, num_rows, RefineKernel::kAuto);
  }
  double RefinedEntropy(const Column& col, uint64_t num_rows,
                        RefineKernel kernel) const;

  /// Sharded (intra-operation parallel) forms of the two refinement
  /// entry points above: the view is split into contiguous mass-balanced
  /// block ranges, each shard runs the unchanged serial kernel on the
  /// pool, and outputs are concatenated in block order. Results are
  /// IDENTICAL to the serial methods at any thread count — byte-identical
  /// blocks/rows/delta, bit-identical entropies (shards merge their
  /// block-size histograms). threads <= 1, a null pool, or a view below
  /// the shard-mass floor degrade to the serial call; nested submission
  /// from a pool task degrades to serial via the pool's busy-inline
  /// fallback.
  Partition RefinedBySharded(const Column& col, RefineKernel kernel,
                             uint32_t threads, WorkerPool* pool,
                             PartitionDelta* delta_out = nullptr) const;
  double RefinedEntropySharded(const Column& col, uint64_t num_rows,
                               RefineKernel kernel, uint32_t threads,
                               WorkerPool* pool) const;

  /// H over the empirical distribution whose grouping this partition is,
  /// in nats: ln n - (1/n) sum_blocks c ln c. `num_rows` is |R| (the
  /// stripped representation does not know how many singletons exist).
  /// Evaluated from the block-size histogram (engine/block_histogram.h),
  /// so the value is bit-identical to the count-only kernel that would
  /// have produced this grouping, and to every other path's H of it.
  double EntropyNats(uint64_t num_rows) const;

  // --- Delta extension (epoch catch-up) ---------------------------------
  //
  // Relations grow by appends only (relation/relation.h), so a partition
  // computed over the first `old_rows` rows remains a valid grouping of
  // those rows forever; extension folds the appended suffix in without
  // re-deriving the prefix. Both methods are BIT-IDENTICAL — block
  // boundaries, block order, row order — to the cold factory applied to
  // the grown column(s), which is what makes incremental catch-up
  // indistinguishable from a full rebuild (tests/epoch_test.cc).

  /// Extension of a single-column partition: `this` must equal
  /// OfColumn(col restricted to the first old_rows rows); returns
  /// OfColumn(col) over all rows, computed by tallying only the appended
  /// rows against the old code->block layout (old blocks keep their
  /// ascending-code positions; codes promoted out of singledom or newly
  /// appeared are merged in code order). Requires col.first_row (store
  /// densification) to locate the lone old row of a promoted singleton.
  Partition ExtendedOfColumn(const Column& col, uint64_t old_rows) const;

  /// In-place form of ExtendedOfColumn for a sole-owner partition: adopts
  /// the chunked layout on first use and then touches only the blocks that
  /// actually received appended rows — grown blocks append into their tail
  /// slack (relocating within the chunks when it runs out), promoted
  /// singletons and brand-new codes splice fresh blocks into the ascending
  /// code order in O(blocks) header moves, and a pure tail-growth batch
  /// rewrites nothing else at all. Bit-identical to ExtendedOfColumn.
  void ExtendOfColumnInPlace(const Column& col, uint64_t old_rows);

  /// Extension one refinement step up a chain: `this` is the old child
  /// (the chain's grouping over the first old_rows rows) and `parent_new`
  /// that chain-minus-`col` parent already extended over all rows. Returns
  /// parent_new.RefinedBy(col) bit-identically, but touches only the
  /// parent blocks that received appended rows — untouched blocks'
  /// sub-blocks are copied verbatim, and the leading output blocks BEFORE
  /// the first affected parent block are not even walked (blocks hold row
  /// ids, not positions, so the old prefix is already bit-exact).
  ///
  /// The parent-block correspondence comes from ONE of:
  ///   - `meta`, the PartitionDelta this partition's previous extension
  ///     emitted (the scan-free steady-state path), or
  ///   - `parent_old`, the pre-extension parent partition (the seeding
  ///     path: first extension after a cold build, evicted metadata).
  /// At least one must be non-null. `delta_out`, when given, receives the
  /// metadata for the NEXT extension.
  Partition ExtendedBy(const Partition* parent_old,
                       const Partition& parent_new, const Column& col,
                       uint64_t old_rows, const PartitionDelta* meta,
                       PartitionDelta* delta_out) const;

  /// Convenience form for the seeding path (tests, one-shot callers).
  Partition ExtendedBy(const Partition& parent_old,
                       const Partition& parent_new, const Column& col,
                       uint64_t old_rows) const {
    return ExtendedBy(&parent_old, parent_new, col, old_rows, nullptr,
                      nullptr);
  }

  /// In-place form of ExtendedBy for a sole-owner partition (the engine's
  /// epoch catch-up on entries nothing else aliases): adopts the chunked
  /// layout on first use, then rewrites only the sub-block runs under
  /// parent blocks that received appended rows — grown sub-blocks append
  /// into tail slack, re-shattered runs get fresh chunk regions, and
  /// untouched runs keep their storage (their headers move in O(blocks)
  /// only when the block STRUCTURE changes). Unlike the flat suffix
  /// rewrite this stays O(changed region) even when appends spray across
  /// the whole key space — chunk metadata IS the delta, so no suffix copy
  /// and no locality assumption.
  void ExtendInPlaceBy(const Partition* parent_old,
                       const Partition& parent_new, const Column& col,
                       uint64_t old_rows, const PartitionDelta* meta,
                       PartitionDelta* delta_out);

  /// Number of stripped (size >= 2) blocks.
  uint32_t NumBlocks() const {
    if (chunked_) return static_cast<uint32_t>(blocks_.size());
    return starts_.empty() ? 0 : static_cast<uint32_t>(starts_.size() - 1);
  }

  /// Total rows across stripped blocks. 0 means every row is unique under
  /// this grouping (and under any refinement of it).
  uint64_t NumStrippedRows() const {
    return chunked_ ? mass_ : rows_.size();
  }

  /// Number of distinct values of the grouping's attribute set over the
  /// first `num_rows` rows: one per stripped block plus one per row the
  /// stripping dropped as a singleton. `num_rows` is |R|, as for
  /// EntropyNats.
  uint64_t NumDistinct(uint64_t num_rows) const {
    return NumBlocks() + (num_rows - NumStrippedRows());
  }

  /// Rows of block `b` as [begin, end); contiguous per block in BOTH
  /// layouts (a block never straddles a chunk boundary).
  const uint32_t* BlockBegin(uint32_t b) const {
    AJD_CHECK(b < NumBlocks());
    if (chunked_) {
      const BlockRef& r = blocks_[b];
      return chunks_[r.chunk].data.data() + r.offset;
    }
    return rows_.data() + starts_[b];
  }
  const uint32_t* BlockEnd(uint32_t b) const {
    AJD_CHECK(b < NumBlocks());
    if (chunked_) {
      const BlockRef& r = blocks_[b];
      return chunks_[r.chunk].data.data() + r.offset + r.size;
    }
    return rows_.data() + starts_[b + 1];
  }
  uint32_t BlockSize(uint32_t b) const {
    AJD_CHECK(b < NumBlocks());
    if (chunked_) return blocks_[b].size;
    return starts_[b + 1] - starts_[b];
  }

  /// Materializes the kernel-facing run view into `scratch` (grow-only,
  /// reusable). Flat: one run aliasing the partition's own arrays, zero
  /// copies. Chunked: one run per maximal contiguous stretch of blocks,
  /// with per-run block offsets rebased into the scratch — O(blocks), no
  /// row copies. The view (and the runs it points at) stays valid only
  /// while both the partition and the scratch are unmodified.
  PartitionView View(PartitionViewScratch* scratch) const;

  // --- Canonical flat representation (persistence tier) -----------------
  //
  // The persistent cache store (persist/persistent_store.h) serializes a
  // partition as the two flat arrays FlattenStripped produces and rebuilds
  // it through FromStripped. Flattening is the canonical form: a chunked
  // partition serializes exactly like the flat partition a cold build
  // would have produced, so persisted blobs round-trip the layout change
  // unseen. The factory VALIDATES, because its input crossed a process
  // boundary — a checksum catches torn bytes, not a stale file written by
  // a buggy or hostile producer, and a malformed partition admitted to
  // the cache could corrupt served answers rather than just wasting time.

  /// Writes the canonical flat form: concatenated block members in block
  /// order into *rows, block-boundary offsets into *offsets (block b spans
  /// [offsets[b], offsets[b+1]); both empty for the empty partition).
  /// Identical output in both layouts.
  void FlattenStripped(std::vector<uint32_t>* rows,
                       std::vector<uint32_t>* offsets) const;

  /// Rebuilds a partition from a deserialized raw representation.
  /// InvalidArgument unless the shape is one the factories could have
  /// produced: offsets start at 0, strictly increase, and end at
  /// rows.size(); every block has >= 2 members; rows are strictly
  /// ascending within each block; every row id is < row_bound and appears
  /// in at most one block. (Both arrays empty is the valid empty
  /// partition.)
  static Result<Partition> FromStripped(std::vector<uint32_t> rows,
                                        std::vector<uint32_t> offsets,
                                        uint64_t row_bound);

  /// Heap bytes held (for the engine's cache budget accounting). Chunked
  /// partitions report chunks, slack and block headers included — the
  /// arbiter must charge what the process actually holds, not the live
  /// mass.
  size_t MemoryBytes() const {
    size_t bytes = rows_.capacity() * sizeof(uint32_t) +
                   starts_.capacity() * sizeof(uint32_t) +
                   blocks_.capacity() * sizeof(BlockRef);
    for (const Chunk& c : chunks_) {
      bytes += c.data.capacity() * sizeof(uint32_t);
    }
    return bytes;
  }

 private:
  /// Outcome of the shared extension walk (partition.cc): the first
  /// `prefix_blocks` output blocks are bit-identical to this partition's
  /// own leading blocks (and are not staged); everything after them sits
  /// in the walk's thread-local staging buffers at absolute offsets.
  struct ExtendStaged {
    uint32_t prefix_blocks = 0;
    uint64_t prefix_rows = 0;
    uint64_t total_rows = 0;    ///< prefix + staged suffix rows.
    uint32_t staged_starts = 0; ///< block ends staged after the prefix.
  };

  /// The walk behind the copy-form ExtendedBy. Requires a FLAT `this`,
  /// parent_new.NumBlocks() > 0 and (parent_old || meta).
  ExtendStaged ExtendStageBy(const Partition* parent_old,
                             const Partition& parent_new, const Column& col,
                             uint64_t old_rows, const PartitionDelta* meta,
                             PartitionDelta* delta_out) const;

  /// One append-only row arena. `data` is sized once at construction and
  /// never resized, so pointers into it stay stable for the partition's
  /// lifetime (readers hold BlockBegin pointers across view builds).
  struct Chunk {
    std::vector<uint32_t> data;
    uint32_t used = 0;  ///< words handed out; data[used..) is virgin.
  };

  /// Block header: rows live at chunks_[chunk].data[offset .. offset+size),
  /// with [offset+size, offset+cap) reserved tail slack.
  ///
  /// `code` memoizes the block's value code under the column that refines
  /// this partition (every row of a block shares it, and column codes are
  /// append-only so it never goes stale; in-place extension always extends
  /// along the same chain position, which is what makes the cache sound).
  /// kNoCode until the first extension walk visits the block — adoption
  /// from flat has no column in hand — after which the walks read block
  /// codes sequentially from the headers instead of re-gathering
  /// codes[first row] through two levels of indirection per block per
  /// batch.
  static constexpr uint32_t kNoCode = UINT32_MAX;
  struct BlockRef {
    uint32_t chunk = 0;
    uint32_t offset = 0;
    uint32_t size = 0;
    uint32_t cap = 0;
    uint32_t code = kNoCode;
  };

  /// Flat -> chunked: copies every block into chunk regions with its full
  /// tail slack (cap = GrowCap(size)) and builds the block headers.
  void AdoptChunked();

  /// Chunked -> flat canonical form (slack and strands reclaimed).
  void FlattenInPlace();

  /// Reclamation policy: once held words exceed 3x the live mass plus the
  /// per-block slack allowance (plus a one-chunk grace so small partitions
  /// don't thrash between layouts), drop back to flat; the next in-place
  /// extension re-adopts. Called at the end of every in-place extension.
  void MaybeReclaim();

  /// Reserves a cap-word region in the chunks (appending a new chunk when
  /// the tail chunk is full) and returns its header with size 0.
  BlockRef AllocRegion(uint32_t cap);

  uint32_t* MutableBlockRows(const BlockRef& r) {
    return chunks_[r.chunk].data.data() + r.offset;
  }

  // Flat layout (chunked_ == false):
  std::vector<uint32_t> rows_;    // concatenated members of stripped blocks
  std::vector<uint32_t> starts_;  // block b spans [starts_[b], starts_[b+1])
  // Chunked layout (chunked_ == true; rows_/starts_ empty):
  std::vector<Chunk> chunks_;
  std::vector<BlockRef> blocks_;  // logical block order
  uint64_t mass_ = 0;             // total stripped rows across blocks_
  bool chunked_ = false;
};

}  // namespace ajd

#endif  // AJD_ENGINE_PARTITION_H_
