// BlockSizeHistogram: the one accumulator behind every empirical entropy.
//
// The entropy of a grouping depends only on the multiset of its group
// sizes: with m_c groups of size c over N rows,
//   H = ln N - (1/N) * sum_c m_c * c ln c.
// Every path that computes an entropy — each refinement kernel, the
// sharded kernels, Partition::EntropyNats, the legacy hash-based EntropyOf
// and the groupwise per-group terms — counts m_c with integer adds and
// evaluates the sum in ascending c through EntropyNats below. H(S) is
// therefore a pure function of the grouping: it does not depend on block
// emission order, on which cached base a miss refined from, on how a
// refinement was sharded, or on the thread count. Sharded passes merge
// per-shard histograms with integer adds, which is exact.
//
// Sizes below kXLogXTableSize land in a dense counter array (and the
// final sweep stops at the largest such size seen, so a pass over tiny
// blocks pays a handful of steps, not 1024); larger sizes go to a small
// spill that is sorted once at evaluation.
#ifndef AJD_ENGINE_BLOCK_HISTOGRAM_H_
#define AJD_ENGINE_BLOCK_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ajd {

/// Group sizes below this use the dense counters and the c ln c table.
inline constexpr uint32_t kXLogXTableSize = 1024;

/// c ln c for an integer count, via a precomputed table below
/// kXLogXTableSize (entries are XLogX(double(c)) verbatim, so the table is
/// bit-identical to the libm call it falls back to above that).
double XLogXCount(uint64_t c);

/// Multiset of group sizes; see the header comment. Not thread-safe: one
/// instance per accumulating thread (sharded passes keep one per shard and
/// Merge them).
class BlockSizeHistogram {
 public:
  /// Records one group of `size` rows. Sizes 0 and 1 are accepted and
  /// contribute nothing (1 ln 1 = 0), so callers need not filter
  /// singletons.
  void Add(uint64_t size) {
    if (size < kXLogXTableSize) {
      ++dense_[size];
      if (size > max_dense_) max_dense_ = static_cast<uint32_t>(size);
    } else {
      spill_.push_back(size);
    }
  }

  /// Adds every group recorded in `other` (integer adds: exact, and
  /// independent of merge order).
  void Merge(const BlockSizeHistogram& other);

  /// ln N - (1/N) * sum_c m_c * c ln c, summed in ascending c; 0 for
  /// num_rows == 0. Sorts the spill in place, otherwise leaves the
  /// recorded groups untouched.
  double EntropyNats(uint64_t num_rows);

  /// Forgets every recorded group, in O(largest dense size seen + spill).
  void Clear();

 private:
  std::array<uint64_t, kXLogXTableSize> dense_{};
  uint32_t max_dense_ = 0;
  std::vector<uint64_t> spill_;
};

}  // namespace ajd

#endif  // AJD_ENGINE_BLOCK_HISTOGRAM_H_
