// TupleCounter: an open-addressing hash table over fixed-arity uint32 tuples.
//
// This is the workhorse behind projections, group-bys, hash joins, and
// empirical-distribution counting. Distinct tuples are stored contiguously in
// an arena; each entry carries an occurrence count and an optional postings
// payload managed by the caller via the returned dense index.
#ifndef AJD_RELATION_ROW_HASH_H_
#define AJD_RELATION_ROW_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "util/check.h"

namespace ajd {

/// Mixes a 64-bit value (splitmix64 finalizer).
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Hashes `arity` uint32 words.
inline uint64_t HashTuple(const uint32_t* tuple, size_t arity) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (arity * 0xff51afd7ed558ccdULL);
  size_t i = 0;
  for (; i + 2 <= arity; i += 2) {
    uint64_t w = static_cast<uint64_t>(tuple[i]) |
                 (static_cast<uint64_t>(tuple[i + 1]) << 32);
    h = Mix64(h ^ w);
  }
  if (i < arity) h = Mix64(h ^ tuple[i]);
  return h;
}

/// Counts occurrences of fixed-arity uint32 tuples and assigns each distinct
/// tuple a dense index in insertion order.
class TupleCounter {
 public:
  /// Creates a counter for tuples of `arity` words, pre-sized for about
  /// `expected` distinct tuples.
  explicit TupleCounter(size_t arity, size_t expected = 16)
      : arity_(arity) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, kEmpty);
  }

  /// Number of uint32 words per tuple.
  size_t arity() const { return arity_; }

  /// Number of distinct tuples inserted so far.
  size_t NumDistinct() const { return counts_.size(); }

  /// Total count over all tuples.
  uint64_t TotalCount() const { return total_; }

  /// Inserts one occurrence of `tuple` (arity() words); returns its dense
  /// index (stable across calls).
  uint32_t Add(const uint32_t* tuple) { return AddWeighted(tuple, 1); }

  /// Inserts `weight` occurrences of `tuple`; returns its dense index.
  uint32_t AddWeighted(const uint32_t* tuple, uint64_t weight) {
    if (counts_.size() * 2 >= slots_.size()) Grow();
    uint64_t h = HashTuple(tuple, arity_);
    size_t mask = slots_.size() - 1;
    size_t pos = static_cast<size_t>(h) & mask;
    while (true) {
      uint32_t slot = slots_[pos];
      if (slot == kEmpty) {
        uint32_t idx = static_cast<uint32_t>(counts_.size());
        slots_[pos] = idx;
        arena_.insert(arena_.end(), tuple, tuple + arity_);
        counts_.push_back(weight);
        total_ += weight;
        return idx;
      }
      if (Equals(slot, tuple)) {
        counts_[slot] += weight;
        total_ += weight;
        return slot;
      }
      pos = (pos + 1) & mask;
    }
  }

  /// Looks up `tuple`; returns its dense index or UINT32_MAX if absent.
  uint32_t Find(const uint32_t* tuple) const {
    uint64_t h = HashTuple(tuple, arity_);
    size_t mask = slots_.size() - 1;
    size_t pos = static_cast<size_t>(h) & mask;
    while (true) {
      uint32_t slot = slots_[pos];
      if (slot == kEmpty) return UINT32_MAX;
      if (Equals(slot, tuple)) return slot;
      pos = (pos + 1) & mask;
    }
  }

  /// The distinct tuple with dense index `idx` (arity() words).
  const uint32_t* TupleAt(uint32_t idx) const {
    AJD_CHECK(idx < counts_.size());
    return arena_.data() + static_cast<size_t>(idx) * arity_;
  }

  /// Occurrence count of the tuple with dense index `idx`.
  uint64_t CountAt(uint32_t idx) const {
    AJD_CHECK(idx < counts_.size());
    return counts_[idx];
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  bool Equals(uint32_t idx, const uint32_t* tuple) const {
    // Arity 0: every tuple is the empty tuple, and the arena holds no words
    // (memcmp on its null data would be undefined even for zero bytes).
    if (arity_ == 0) return true;
    const uint32_t* stored = arena_.data() + static_cast<size_t>(idx) * arity_;
    return std::memcmp(stored, tuple, arity_ * sizeof(uint32_t)) == 0;
  }

  void Grow() {
    std::vector<uint32_t> fresh(slots_.size() * 2, kEmpty);
    size_t mask = fresh.size() - 1;
    for (uint32_t idx = 0; idx < counts_.size(); ++idx) {
      const uint32_t* t = arena_.data() + static_cast<size_t>(idx) * arity_;
      size_t pos = static_cast<size_t>(HashTuple(t, arity_)) & mask;
      while (fresh[pos] != kEmpty) pos = (pos + 1) & mask;
      fresh[pos] = idx;
    }
    slots_ = std::move(fresh);
  }

  size_t arity_;
  std::vector<uint32_t> slots_;   // open-addressing table of dense indexes
  std::vector<uint32_t> arena_;   // distinct tuples, arity_ words each
  std::vector<uint64_t> counts_;  // per-distinct-tuple occurrence counts
  uint64_t total_ = 0;
};

}  // namespace ajd

#endif  // AJD_RELATION_ROW_HASH_H_
