#include "engine/refine_kernels.h"

#include <algorithm>
#include <cstring>

#include "engine/block_histogram.h"
#include "util/check.h"

namespace ajd {

namespace {

// Thread-local scratch shared by every kernel. Invariant: `count` is
// all-zero between blocks and between calls — every user resets exactly the
// entries it touched.
struct RefineScratch {
  std::vector<uint32_t> count;      // code -> multiplicity within the block
  std::vector<uint32_t> offset;     // code -> write cursor (materializing)
  std::vector<uint32_t> touched;    // codes seen in the current block
  std::vector<uint32_t> comp;       // refine: gathered code per block row
  std::vector<uint64_t> pairs;      // sort: (code << 32) | row
  std::vector<uint64_t> pairs_tmp;  // sort: radix ping-pong buffer
  std::vector<uint32_t> groups;     // sort: flat [start, len] group list
  // Output staging: kernels build the refined partition here (reused
  // across calls, so no per-call allocation or zero-fill) and copy the
  // exact-size result out once at the end — the cached partition then
  // holds no dead capacity at all.
  std::vector<uint32_t> stage_rows;
  std::vector<uint32_t> stage_starts;
  size_t block_watermark = 0;       // largest block touched this call
  size_t stage_watermark = 0;       // largest staged mass this call
  BlockSizeHistogram sizes;         // count-only passes: emitted group sizes
};

RefineScratch& LocalScratch() {
  static thread_local RefineScratch scratch;
  return scratch;
}

// Releases pathologically large scratch when the guarded call finishes: a
// single refinement against a near-key column sizes the code-indexed
// arrays to that cardinality, and without the guard every worker thread
// would pin that allocation for the rest of the process. The
// sort buffers are sized by the largest block instead and shed by the same
// spike rule.
class ScratchGuard {
 public:
  // cardinality == 0 means the call needs no code-indexed arrays (sort
  // path); they are left untouched and only the block-sized buffers are
  // policed.
  ScratchGuard(RefineScratch* scratch, uint64_t cardinality)
      : scratch_(scratch), cardinality_(cardinality) {
    scratch_->block_watermark = 0;
    scratch_->stage_watermark = 0;
    if (cardinality_ > 0 && scratch_->count.size() < cardinality_) {
      scratch_->count.resize(cardinality_, 0);
      scratch_->offset.resize(cardinality_);
    }
  }

  ScratchGuard(const ScratchGuard&) = delete;
  ScratchGuard& operator=(const ScratchGuard&) = delete;

  ~ScratchGuard() {
    static constexpr size_t kKeepEntries = size_t{1} << 16;
    const size_t cap = scratch_->count.capacity();
    // cardinality_ == 0 (sort path) never touched the counter arrays, so
    // it must not judge — or shed — them.
    if (cardinality_ > 0 && cap > kKeepEntries && cap / 4 > cardinality_) {
      // This call was a spike relative to the steady state; drop the
      // buffers entirely (the next call re-sizes to what it needs).
      std::vector<uint32_t>().swap(scratch_->count);
      std::vector<uint32_t>().swap(scratch_->offset);
      std::vector<uint32_t>().swap(scratch_->touched);
    }
    const size_t sort_cap = scratch_->pairs.capacity();
    if (sort_cap > kKeepEntries && sort_cap / 4 > scratch_->block_watermark) {
      std::vector<uint64_t>().swap(scratch_->pairs);
      std::vector<uint64_t>().swap(scratch_->pairs_tmp);
    }
    // Block-sized buffers (largest block seen): same spike rule as pairs.
    const size_t comp_cap = scratch_->comp.capacity();
    if (comp_cap > kKeepEntries && comp_cap / 4 > scratch_->block_watermark) {
      std::vector<uint32_t>().swap(scratch_->comp);
      std::vector<uint32_t>().swap(scratch_->touched);
    }
    const size_t stage_cap = scratch_->stage_rows.capacity();
    if (stage_cap > kKeepEntries && stage_cap / 4 > scratch_->stage_watermark) {
      std::vector<uint32_t>().swap(scratch_->stage_rows);
      std::vector<uint32_t>().swap(scratch_->stage_starts);
    }
  }

 private:
  RefineScratch* scratch_;
  uint64_t cardinality_;
};

// ---------------------------------------------------------------------------
// Counting tally. Fills scratch->count for the block and records the first
// occurrence of every code in scratch->touched[0..t), returning t. It
// tallies in block-scan order, so the touched order — and with it every
// downstream output — is fixed by the block alone.
// ---------------------------------------------------------------------------

// The branchless counting tally. `hard_end` is the end of the WHOLE
// partition's row array, not the block: blocks are contiguous slices of
// it, so the gather prefetch runs against the global end and keeps the
// pipeline primed across block boundaries — the case that matters, since
// refined partitions shatter into blocks far shorter than any useful
// prefetch distance. kKeepCodes streams every gathered code into
// s->comp[0..m), so a following scatter pass re-reads codes sequentially
// from L1 instead of re-gathering — the gather is the dominant cost of a
// refinement once the column outgrows L1.
template <bool kKeepCodes>
size_t Tally(const uint32_t* begin, const uint32_t* end,
             const uint32_t* hard_end, const uint32_t* codes,
             RefineScratch* s) {
  const size_t m = static_cast<size_t>(end - begin);
  if (m > s->block_watermark) s->block_watermark = m;
  uint32_t* comp = nullptr;
  if (kKeepCodes) {
    if (s->comp.size() < m) s->comp.resize(m);
    comp = s->comp.data();
  }
  if (s->touched.size() < m) s->touched.resize(m);
  uint32_t* touched = s->touched.data();
  uint32_t* count = s->count.data();
  constexpr size_t kGatherAhead = 16;
  size_t t = 0;
  for (size_t i = 0; i < m; ++i) {
    if (begin + i + kGatherAhead < hard_end) {
      __builtin_prefetch(&codes[begin[i + kGatherAhead]]);
    }
    const uint32_t c = codes[begin[i]];
    if (kKeepCodes) comp[i] = c;
    touched[t] = c;
    t += (count[c] == 0);
    ++count[c];
  }
  return t;
}

// ---------------------------------------------------------------------------
// Tiny-block path. Real partitions are dominated by blocks of a handful of
// rows (a half-refined relation shatters into thousands of 2-16 row
// blocks), where the counting kernels' per-block costs — scratch resets,
// touched bookkeeping, output resizing — dwarf the row work itself. Blocks
// this small are grouped by direct comparison over a register-resident
// buffer instead: no code-indexed scratch is read OR written, so the path
// is also immune to the cardinality.
// ---------------------------------------------------------------------------

// Must stay <= 32 (group membership lives in a uint32 bitmask).
constexpr size_t kTinyBlockMax = 4;

// Refines one tiny block, appending sub-blocks (first-occurrence order,
// rows ascending — identical to the counting path) at out_rows[total...].
// Returns the new total.
inline uint32_t TinyBlockRefine(const uint32_t* begin, size_t m,
                                const uint32_t* codes, uint32_t* out_rows,
                                uint32_t total, uint32_t* out_starts,
                                uint32_t* num_out) {
  uint32_t buf[kTinyBlockMax];
  for (size_t i = 0; i < m; ++i) buf[i] = codes[begin[i]];
  uint32_t done = 0;
  for (size_t i = 0; i < m; ++i) {
    if ((done >> i) & 1) continue;
    const uint32_t c = buf[i];
    uint32_t members = uint32_t{1} << i;
    uint32_t cnt = 1;
    for (size_t j = i + 1; j < m; ++j) {
      if (buf[j] == c) {
        members |= uint32_t{1} << j;
        ++cnt;
      }
    }
    done |= members;
    if (cnt >= 2) {
      for (size_t j = i; j < m; ++j) {
        if ((members >> j) & 1) out_rows[total++] = begin[j];
      }
      out_starts[(*num_out)++] = total;
    }
  }
  return total;
}

// Count-only form: records the tiny block's group sizes (singleton groups
// contribute nothing to the entropy, so they are not recorded).
inline void TinyBlockSizes(const uint32_t* begin, size_t m,
                           const uint32_t* codes, BlockSizeHistogram* sizes) {
  uint32_t buf[kTinyBlockMax];
  for (size_t i = 0; i < m; ++i) buf[i] = codes[begin[i]];
  uint32_t done = 0;
  for (size_t i = 0; i < m; ++i) {
    if ((done >> i) & 1) continue;
    const uint32_t c = buf[i];
    uint32_t members = uint32_t{1} << i;
    uint32_t cnt = 1;
    for (size_t j = i + 1; j < m; ++j) {
      if (buf[j] == c) {
        members |= uint32_t{1} << j;
        ++cnt;
      }
    }
    done |= members;
    if (cnt >= 2) sizes->Add(cnt);
  }
}

// ---------------------------------------------------------------------------
// Sort path: per-block radix sort of (code << 32) | row. Scratch is sized
// by the block, never the cardinality.
// ---------------------------------------------------------------------------

// Blocks at or below this size use std::sort; the radix histograms cost
// more than a comparison sort on tiny inputs.
constexpr size_t kSortSmallBlock = 64;

// LSD radix sort of pairs[0..m) by the code (high 32 bits), one 8-bit digit
// per pass, only as many passes as max_code needs. Stable, so the row order
// within equal codes — ascending, the block invariant — is preserved.
void RadixSortByCode(RefineScratch* s, size_t m, uint32_t max_code) {
  uint64_t* a = s->pairs.data();
  uint64_t* b = s->pairs_tmp.data();
  uint32_t hist[256];
  for (uint32_t shift = 32; max_code != 0; shift += 8, max_code >>= 8) {
    std::memset(hist, 0, sizeof(hist));
    for (size_t i = 0; i < m; ++i) ++hist[(a[i] >> shift) & 0xff];
    uint32_t sum = 0;
    for (uint32_t d = 0; d < 256; ++d) {
      const uint32_t c = hist[d];
      hist[d] = sum;
      sum += c;
    }
    for (size_t i = 0; i < m; ++i) b[hist[(a[i] >> shift) & 0xff]++] = a[i];
    std::swap(a, b);
  }
  if (a != s->pairs.data()) {
    std::memcpy(s->pairs.data(), a, m * sizeof(uint64_t));
  }
}

// Sorts one block's (code, row) pairs into scratch->pairs and appends the
// [start, len] descriptors of every size >= 2 run (code-ascending order) to
// scratch->groups as flat pairs. Returns the number of such groups.
size_t SortBlockIntoGroups(const uint32_t* begin, const uint32_t* end,
                           const uint32_t* codes, uint32_t cardinality,
                           RefineScratch* s) {
  const size_t m = static_cast<size_t>(end - begin);
  if (m > s->block_watermark) s->block_watermark = m;
  if (s->pairs.size() < m) {
    s->pairs.resize(m);
    s->pairs_tmp.resize(m);
  }
  uint64_t* pairs = s->pairs.data();
  for (size_t i = 0; i < m; ++i) {
    const uint32_t r = begin[i];
    pairs[i] = (static_cast<uint64_t>(codes[r]) << 32) | r;
  }
  if (m <= kSortSmallBlock) {
    // Full-key sort: rows ascend within a block, so ordering by
    // (code, row) equals the stable-by-code order.
    std::sort(pairs, pairs + m);
  } else {
    RadixSortByCode(s, m, cardinality == 0 ? 0 : cardinality - 1);
  }
  s->groups.clear();
  size_t num_groups = 0;
  size_t run = 0;
  for (size_t i = 1; i <= m; ++i) {
    if (i == m || (pairs[i] >> 32) != (pairs[run] >> 32)) {
      if (i - run >= 2) {
        s->groups.push_back(static_cast<uint32_t>(run));
        s->groups.push_back(static_cast<uint32_t>(i - run));
        ++num_groups;
      }
      run = i;
    }
  }
  return num_groups;
}

// Reorders the flat [start, len] group list by each group's first row —
// which, rows ascending within the block, is its first-occurrence position,
// i.e. exactly the order the counting kernels' touched list would emit.
void OrderGroupsByFirstRow(RefineScratch* s, size_t num_groups) {
  struct GroupRef {
    uint32_t first_row;
    uint32_t start;
    uint32_t len;
  };
  static thread_local std::vector<GroupRef> refs;
  refs.clear();
  refs.reserve(num_groups);
  const uint64_t* pairs = s->pairs.data();
  for (size_t g = 0; g < num_groups; ++g) {
    const uint32_t start = s->groups[2 * g];
    const uint32_t len = s->groups[2 * g + 1];
    refs.push_back({static_cast<uint32_t>(pairs[start]), start, len});
  }
  std::sort(refs.begin(), refs.end(),
            [](const GroupRef& a, const GroupRef& b) {
              return a.first_row < b.first_row;  // first rows are distinct
            });
  for (size_t g = 0; g < num_groups; ++g) {
    s->groups[2 * g] = refs[g].start;
    s->groups[2 * g + 1] = refs[g].len;
  }
}

}  // namespace

RefineKernel ChooseRefineKernel(uint32_t cardinality,
                                uint64_t stripped_rows) {
  // The sort path exists to avoid cardinality-sized scratch, so it only
  // pays once that scratch is genuinely large: below the ScratchGuard's
  // keep threshold the counter arrays stay allocated and cache-warm across
  // calls, and counting beats sorting at every block size (perf_partition
  // sweep). Past it, the counting pass walks a counter array it can never
  // keep cached (and a near-key refinement would allocate, touch, and shed
  // megabytes per call just to strip almost every row); the measured
  // crossover sits near cardinality ~ half the stripped mass.
  if (cardinality > kSortMinCardinality &&
      cardinality >= stripped_rows / 2) {
    return RefineKernel::kSort;
  }
  return RefineKernel::kDense;
}

void RefineByColumn(const PartitionView& in, const Column& col,
                    RefineKernel kernel, const PartitionBuild& out,
                    PartitionDelta* delta_out) {
  out.rows->clear();
  out.starts->clear();
  uint32_t in_blocks = 0;
  for (uint32_t r = 0; r < in.num_runs; ++r) {
    in_blocks += in.runs[r].num_blocks;
  }
  if (delta_out != nullptr) {
    delta_out->run_lengths.clear();
    delta_out->run_lengths.reserve(in_blocks);
    delta_out->parent_first_rows.clear();
    delta_out->parent_first_rows.reserve(in_blocks);
  }
  if (in_blocks == 0) return;
  const uint64_t mass = in.mass;
  if (kernel == RefineKernel::kAuto) {
    kernel = ChooseRefineKernel(col.cardinality, mass);
  }
  RefineScratch& scratch = LocalScratch();
  const uint32_t* codes = col.codes.data();
  // The guard must be constructed BEFORE `stage_watermark = mass` below:
  // its constructor resets the shed watermarks, so the reverse order would
  // zero the recorded mass and let the destructor (at function exit) shed
  // staging capacity this call legitimately used — and a nested guard
  // inside a branch would do the same mid-call, freeing the staging
  // buffers before the final copy-out reads them (ASan caught exactly
  // that during development).
  ScratchGuard guard(&scratch,
                     kernel == RefineKernel::kSort ? 0 : col.cardinality);
  // Build into the reusable staging buffers (no per-call allocation or
  // zero-fill; raw-pointer writes per block — partitions shatter into
  // thousands of tiny blocks, and a resize call per block would cost more
  // than the row work), then copy the exact-size result out once at the
  // end: the cached partition holds no dead capacity at all.
  if (scratch.stage_rows.size() < mass) scratch.stage_rows.resize(mass);
  if (scratch.stage_starts.size() < mass + 1) {
    scratch.stage_starts.resize(mass + 1);
  }
  scratch.stage_watermark = mass;
  uint32_t* out_rows = scratch.stage_rows.data();
  uint32_t* out_starts = scratch.stage_starts.data();
  uint32_t total = 0;
  uint32_t num_out = 0;
  out_starts[num_out++] = 0;
  // Build-time delta: one (parent first row, emitted sub-blocks) entry per
  // input block, in block order — zero-count entries included, which is
  // exactly the correspondence Partition::ExtendInPlaceBy consumes.
  auto emit_delta = [&](const uint32_t* begin, uint32_t emitted) {
    if (delta_out != nullptr) {
      delta_out->parent_first_rows.push_back(begin[0]);
      delta_out->run_lengths.push_back(emitted);
    }
  };

  if (kernel == RefineKernel::kSort) {
    for (uint32_t r = 0; r < in.num_runs; ++r) {
      const PartitionRun& run = in.runs[r];
      for (uint32_t b = 0; b < run.num_blocks; ++b) {
        const uint32_t* begin = run.rows + run.starts[b];
        const uint32_t* end = run.rows + run.starts[b + 1];
        const size_t m = static_cast<size_t>(end - begin);
        const uint32_t before = num_out;
        if (m <= kTinyBlockMax) {
          total = TinyBlockRefine(begin, m, codes, out_rows, total, out_starts,
                                  &num_out);
          emit_delta(begin, num_out - before);
          continue;
        }
        const size_t num_groups =
            SortBlockIntoGroups(begin, end, codes, col.cardinality, &scratch);
        OrderGroupsByFirstRow(&scratch, num_groups);
        const uint64_t* pairs = scratch.pairs.data();
        for (size_t g = 0; g < num_groups; ++g) {
          const uint32_t start = scratch.groups[2 * g];
          const uint32_t len = scratch.groups[2 * g + 1];
          for (uint32_t i = 0; i < len; ++i) {
            out_rows[total++] = static_cast<uint32_t>(pairs[start + i]);
          }
          out_starts[num_out++] = total;
        }
        emit_delta(begin, num_out - before);
      }
    }
  } else {
    for (uint32_t r = 0; r < in.num_runs; ++r) {
      const PartitionRun& run = in.runs[r];
      // The gather-prefetch lookahead may cross block boundaries, but
      // never the run's contiguous row storage.
      const uint32_t* hard_end = run.rows + run.starts[run.num_blocks];
      for (uint32_t b = 0; b < run.num_blocks; ++b) {
        const uint32_t* begin = run.rows + run.starts[b];
        const uint32_t* end = run.rows + run.starts[b + 1];
        const size_t m = static_cast<size_t>(end - begin);
        const uint32_t before = num_out;
        if (m <= kTinyBlockMax) {
          total = TinyBlockRefine(begin, m, codes, out_rows, total, out_starts,
                                  &num_out);
          emit_delta(begin, num_out - before);
          continue;
        }
        const size_t t = Tally<true>(begin, end, hard_end, codes, &scratch);
        // The two degenerate outcomes dominate real chains and need no
        // emit/scatter: a fully-shattered block (every row its own code)
        // emits nothing, and an unsplit block (one code) is copied verbatim.
        if (t == m) {
          for (size_t j = 0; j < t; ++j) scratch.count[scratch.touched[j]] = 0;
          emit_delta(begin, 0);
          continue;
        }
        if (t == 1) {
          std::memcpy(out_rows + total, begin, m * sizeof(uint32_t));
          total += static_cast<uint32_t>(m);
          out_starts[num_out++] = total;
          scratch.count[scratch.touched[0]] = 0;
          emit_delta(begin, 1);
          continue;
        }
        const uint32_t base = total;
        uint32_t pos = 0;
        for (size_t j = 0; j < t; ++j) {
          const uint32_t c = scratch.touched[j];
          if (scratch.count[c] >= 2) {
            scratch.offset[c] = base + pos;
            pos += scratch.count[c];
            out_starts[num_out++] = base + pos;
          } else {
            scratch.offset[c] = UINT32_MAX;
          }
        }
        total = base + pos;
        const uint32_t* comp = scratch.comp.data();
        for (size_t i2 = 0; i2 < m; ++i2) {
          const uint32_t c = comp[i2];
          if (scratch.offset[c] != UINT32_MAX) {
            out_rows[scratch.offset[c]++] = begin[i2];
          }
        }
        // Reset touched counters once per block (t entries), not per row.
        for (size_t j = 0; j < t; ++j) scratch.count[scratch.touched[j]] = 0;
        emit_delta(begin, num_out - before);
      }
    }
  }
  out.rows->assign(out_rows, out_rows + total);
  if (num_out > 1) {
    out.starts->assign(out_starts, out_starts + num_out);
  }
}

double RefineEntropy(const PartitionView& in, const Column& col,
                     RefineKernel kernel, uint64_t num_rows) {
  if (kernel == RefineKernel::kAuto) {
    kernel = ChooseRefineKernel(col.cardinality, in.mass);
  }
  RefineScratch& scratch = LocalScratch();
  const uint32_t* codes = col.codes.data();
  // Records the size of every group the refinement would emit. Cleared on
  // entry, not exit: a scan that throws must not leave counts behind for
  // this thread's next call.
  BlockSizeHistogram* sizes = &scratch.sizes;
  sizes->Clear();

  if (kernel == RefineKernel::kSort) {
    ScratchGuard guard(&scratch, /*cardinality=*/0);
    for (uint32_t r = 0; r < in.num_runs; ++r) {
      const PartitionRun& run = in.runs[r];
      for (uint32_t b = 0; b < run.num_blocks; ++b) {
        const uint32_t* begin = run.rows + run.starts[b];
        const uint32_t* end = run.rows + run.starts[b + 1];
        const size_t m = static_cast<size_t>(end - begin);
        if (m <= kTinyBlockMax) {
          TinyBlockSizes(begin, m, codes, sizes);
          continue;
        }
        const size_t num_groups =
            SortBlockIntoGroups(begin, end, codes, col.cardinality, &scratch);
        // Only size >= 2 groups are listed; singletons contribute nothing.
        for (size_t g = 0; g < num_groups; ++g) {
          sizes->Add(scratch.groups[2 * g + 1]);
        }
      }
    }
  } else {
    ScratchGuard guard(&scratch, col.cardinality);
    for (uint32_t r = 0; r < in.num_runs; ++r) {
      const PartitionRun& run = in.runs[r];
      // The gather-prefetch lookahead may cross block boundaries, but
      // never the run's contiguous row storage.
      const uint32_t* hard_end = run.rows + run.starts[run.num_blocks];
      for (uint32_t b = 0; b < run.num_blocks; ++b) {
        const uint32_t* begin = run.rows + run.starts[b];
        const uint32_t* end = run.rows + run.starts[b + 1];
        const size_t m = static_cast<size_t>(end - begin);
        if (m <= kTinyBlockMax) {
          TinyBlockSizes(begin, m, codes, sizes);
          continue;
        }
        const size_t t = Tally<false>(begin, end, hard_end, codes, &scratch);
        if (t == 1) {
          // Unsplit block: one group of m rows.
          sizes->Add(m);
          scratch.count[scratch.touched[0]] = 0;
          continue;
        }
        if (t == m) {
          // Fully shattered: every group is a sub-singleton, contributing
          // an exact 0 apiece.
          for (size_t j = 0; j < t; ++j) scratch.count[scratch.touched[j]] = 0;
          continue;
        }
        for (size_t j = 0; j < t; ++j) {
          const uint32_t c = scratch.touched[j];
          // Sub-singletons land in the size-1 counter and contribute
          // nothing, exactly as if stripped.
          sizes->Add(scratch.count[c]);
          scratch.count[c] = 0;
        }
      }
    }
  }
  return sizes->EntropyNats(num_rows);
}

void SortPartitionOfColumn(const Column& col, const PartitionBuild& out) {
  const size_t n = col.codes.size();
  out.rows->clear();
  out.starts->clear();
  if (n == 0) return;
  RefineScratch& scratch = LocalScratch();
  ScratchGuard guard(&scratch, /*cardinality=*/0);
  if (n > scratch.block_watermark) scratch.block_watermark = n;
  if (scratch.pairs.size() < n) {
    scratch.pairs.resize(n);
    scratch.pairs_tmp.resize(n);
  }
  uint64_t* pairs = scratch.pairs.data();
  const uint32_t* codes = col.codes.data();
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = (static_cast<uint64_t>(codes[i]) << 32) | i;
  }
  if (n <= kSortSmallBlock) {
    std::sort(pairs, pairs + n);
  } else {
    RadixSortByCode(&scratch, n, col.cardinality == 0 ? 0
                                                      : col.cardinality - 1);
  }
  // OfColumn emits blocks in ascending CODE order (not first-occurrence
  // order), so the code-sorted runs are emitted as-is.
  out.starts->push_back(0);
  size_t run = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || (pairs[i] >> 32) != (pairs[run] >> 32)) {
      if (i - run >= 2) {
        for (size_t j = run; j < i; ++j) {
          out.rows->push_back(static_cast<uint32_t>(pairs[j]));
        }
        out.starts->push_back(static_cast<uint32_t>(out.rows->size()));
      }
      run = i;
    }
  }
  if (out.starts->size() == 1) out.starts->clear();
}

size_t ShedOversizedRefineScratch() {
  RefineScratch& s = LocalScratch();
  // Same keep threshold as ScratchGuard: steady-state capacity stays, only
  // spikes are released.
  constexpr size_t kKeepEntries = size_t{1} << 16;
  size_t freed = 0;
  const auto shed32 = [&freed](std::vector<uint32_t>& v) {
    if (v.capacity() > kKeepEntries) {
      freed += v.capacity() * sizeof(uint32_t);
      std::vector<uint32_t>().swap(v);
    }
  };
  // Buffers that are resized as a pair under a size check on the FIRST
  // member (count/offset, pairs/pairs_tmp) must shed as a pair too:
  // dropping only the second would leave it undersized behind a check that
  // no longer fires.
  const auto shed_pair32 = [&freed, kKeepEntries](std::vector<uint32_t>& a,
                                                  std::vector<uint32_t>& b) {
    if (a.capacity() > kKeepEntries || b.capacity() > kKeepEntries) {
      freed += (a.capacity() + b.capacity()) * sizeof(uint32_t);
      std::vector<uint32_t>().swap(a);
      std::vector<uint32_t>().swap(b);
    }
  };
  shed_pair32(s.count, s.offset);
  if (s.pairs.capacity() > kKeepEntries ||
      s.pairs_tmp.capacity() > kKeepEntries) {
    freed += (s.pairs.capacity() + s.pairs_tmp.capacity()) * sizeof(uint64_t);
    std::vector<uint64_t>().swap(s.pairs);
    std::vector<uint64_t>().swap(s.pairs_tmp);
  }
  shed32(s.touched);
  shed32(s.comp);
  shed32(s.groups);
  shed32(s.stage_rows);
  shed32(s.stage_starts);
  return freed;
}

size_t RefineScratchBytes() {
  const RefineScratch& s = LocalScratch();
  size_t bytes = 0;
  const auto add32 = [&bytes](const std::vector<uint32_t>& v) {
    bytes += v.capacity() * sizeof(uint32_t);
  };
  const auto add64 = [&bytes](const std::vector<uint64_t>& v) {
    bytes += v.capacity() * sizeof(uint64_t);
  };
  add32(s.count);
  add32(s.offset);
  add32(s.touched);
  add32(s.comp);
  add64(s.pairs);
  add64(s.pairs_tmp);
  add32(s.groups);
  add32(s.stage_rows);
  add32(s.stage_starts);
  return bytes;
}

}  // namespace ajd
