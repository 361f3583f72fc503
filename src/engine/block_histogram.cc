#include "engine/block_histogram.h"

#include <algorithm>
#include <cmath>

#include "util/math.h"

namespace ajd {

double XLogXCount(uint64_t c) {
  static const std::vector<double>& table = *[] {
    auto* t = new std::vector<double>(kXLogXTableSize);
    for (uint32_t i = 0; i < kXLogXTableSize; ++i) {
      (*t)[i] = XLogX(static_cast<double>(i));
    }
    return t;
  }();
  return c < kXLogXTableSize ? table[c] : XLogX(static_cast<double>(c));
}

void BlockSizeHistogram::Merge(const BlockSizeHistogram& other) {
  for (uint32_t c = 0; c <= other.max_dense_; ++c) dense_[c] += other.dense_[c];
  max_dense_ = std::max(max_dense_, other.max_dense_);
  spill_.insert(spill_.end(), other.spill_.begin(), other.spill_.end());
}

double BlockSizeHistogram::EntropyNats(uint64_t num_rows) {
  if (num_rows == 0) return 0.0;
  // Sizes 0 and 1 contribute exact zeros, so the sweep starts at 2.
  double sum_clogc = 0.0;
  for (uint32_t c = 2; c <= max_dense_; ++c) {
    if (dense_[c] != 0) {
      sum_clogc += static_cast<double>(dense_[c]) * XLogXCount(c);
    }
  }
  std::sort(spill_.begin(), spill_.end());
  for (size_t i = 0; i < spill_.size();) {
    size_t j = i + 1;
    while (j < spill_.size() && spill_[j] == spill_[i]) ++j;
    sum_clogc += static_cast<double>(j - i) * XLogXCount(spill_[i]);
    i = j;
  }
  const double n = static_cast<double>(num_rows);
  return std::log(n) - sum_clogc / n;
}

void BlockSizeHistogram::Clear() {
  std::fill(dense_.begin(), dense_.begin() + max_dense_ + 1, uint64_t{0});
  max_dense_ = 0;
  spill_.clear();
}

}  // namespace ajd
