// Cardinality-adaptive partition-refinement kernels.
//
// Every entropy the library computes bottoms out in refining a stripped
// partition by a dense column (engine/partition.h). One counting strategy
// cannot be right across the cardinality spectrum:
//
//   kDense — a branchless counting pass over a code-indexed scratch array,
//            with software prefetch of the codes[row] gather.
//   kSort  — a per-block radix sort of (code, row) pairs. Scratch is sized
//            by the BLOCK, not the cardinality, so a near-key column no
//            longer spikes a cardinality-sized allocation just to strip
//            almost everything.
//
// Both produce bit-identical partitions: blocks emitted per input
// block in first-occurrence order of the code, rows in ascending order
// (the library-wide invariant — every Partition factory scans rows in
// ascending order, so block members are always sorted).
//
// Every kernel applies ONE column. A multi-column refinement is a chain of
// RefineByColumn steps (each intermediate is a cacheable partition the
// engine reuses as a base), optionally ending in the count-only
// RefineEntropy when only the last step's entropy is wanted.
//
// Entropies are order-free by construction: every kernel records its
// emitted group sizes in a BlockSizeHistogram (engine/block_histogram.h)
// and evaluates H from the histogram alone, so the count-only pass returns
// the same bits whichever kernel ran.
#ifndef AJD_ENGINE_REFINE_KERNELS_H_
#define AJD_ENGINE_REFINE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/column_store.h"

namespace ajd {

/// Refinement strategy. kAuto picks per call from the column cardinality
/// and the partition's stripped mass (threshold below).
enum class RefineKernel : uint8_t { kAuto = 0, kDense, kSort };

/// kSort requires BOTH cardinality >= half the stripped mass (the
/// measured crossover: past it the code-indexed scratch costs as much as
/// the refinement itself) and cardinality above this floor — smaller
/// counter arrays stay resident across calls (the scratch guard keeps up
/// to 64Ki entries), where counting beats sorting at every block size.
inline constexpr uint32_t kSortMinCardinality = uint32_t{1} << 16;

RefineKernel ChooseRefineKernel(uint32_t cardinality, uint64_t stripped_rows);

/// One maximal contiguous run of a stripped partition's storage: blocks
/// whose rows sit back to back in memory with no slack between them. A
/// flat partition is a single run over its whole row array; a chunked
/// partition (engine/partition.h) yields one run per contiguous stretch of
/// blocks inside its chunks.
struct PartitionRun {
  const uint32_t* rows = nullptr;    // concatenated block members
  const uint32_t* starts = nullptr;  // block b spans [starts[b], starts[b+1])
  uint32_t num_blocks = 0;
};

/// Read-only view of a stripped partition as an ordered sequence of runs.
/// Blocks keep their logical (emission) order across runs, so kernels that
/// iterate runs outer / blocks inner emit exactly what the flat iteration
/// emitted. `mass` is the total stripped row count (sum of all run spans).
/// Empty partition = all null/0. Produced by Partition::View(); the view
/// borrows the partition's storage and the scratch it was built into, so
/// neither may be mutated while the view is live.
struct PartitionView {
  const PartitionRun* runs = nullptr;
  uint32_t num_runs = 0;
  uint64_t mass = 0;
};

/// Caller-owned scratch a PartitionView is materialized into (grow-only;
/// reusable across calls). Flat partitions alias their own arrays and only
/// use `runs`; chunked partitions also rebase per-run block offsets into
/// `starts`.
struct PartitionViewScratch {
  std::vector<PartitionRun> runs;
  std::vector<uint32_t> starts;
};

/// Output arrays of a refinement (the caller owns the vectors; starts gets
/// the leading 0 sentinel iff any block is emitted).
struct PartitionBuild {
  std::vector<uint32_t>* rows = nullptr;
  std::vector<uint32_t>* starts = nullptr;
};

/// Cross-epoch correspondence metadata for delta extension, produced by a
/// refinement (at build time, see RefineByColumn) or by one extension and
/// consumed by the next (engine/entropy_engine.h keeps one per cached
/// partition). run_lengths[j] = how many of the partition's blocks came
/// from block j of its DIRECT parent; parent_first_rows[j] = that parent
/// block's first row (stable across appends, so it identifies the block in
/// the extended parent without touching the old parent at all). It is the
/// whole parent-block correspondence Partition::ExtendInPlaceBy walks: no
/// old parent is retained, which in turn lets parents extend in place.
struct PartitionDelta {
  std::vector<uint32_t> run_lengths;
  std::vector<uint32_t> parent_first_rows;
};

/// Refines `in` by `col` with the chosen kernel (kAuto dispatches), writing
/// the result into `out` (cleared first). Output is identical across
/// kernels. When `delta_out` is non-null it receives the parent->child
/// correspondence (one entry per block of `in`, in block order, zero-count
/// entries included), which the FIRST catch-up after this cold build
/// extends by — costs one push_back pair per input block, nothing per row.
void RefineByColumn(const PartitionView& in, const Column& col,
                    RefineKernel kernel, const PartitionBuild& out,
                    PartitionDelta* delta_out = nullptr);

/// Entropy of the refinement WITHOUT materializing it: ln n - (1/n) sum of
/// c ln c over the refined blocks, evaluated from their size histogram (so
/// the value is bit-identical across kernels).
double RefineEntropy(const PartitionView& in, const Column& col,
                     RefineKernel kernel, uint64_t num_rows);

/// Sort-path construction of a column's partition (blocks in ascending code
/// order, identical to the counting construction in Partition::OfColumn)
/// with scratch sized by the row count, not the cardinality. Used for
/// near-key columns where cardinality >= rows.
void SortPartitionOfColumn(const Column& col, const PartitionBuild& out);

/// Frees this thread's kernel scratch buffers whose capacity exceeds the
/// ScratchGuard keep threshold (64Ki entries), returning the bytes freed.
/// The guard already sheds SPIKES relative to a call's own cardinality,
/// but deliberately keeps steady-state-sized buffers warm across calls —
/// right for an application thread, wrong for a pool worker that may park
/// indefinitely after one large refinement. WorkerPool calls this when a
/// worker parks between batches.
size_t ShedOversizedRefineScratch();

/// Heap bytes currently held by this thread's kernel scratch (test hook
/// for the park-shed policy above).
size_t RefineScratchBytes();

}  // namespace ajd

#endif  // AJD_ENGINE_REFINE_KERNELS_H_
