#include "engine/refine_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "engine/worker_pool.h"
#include "util/check.h"
#include "util/math.h"

#if defined(__x86_64__) && !defined(AJD_DISABLE_SIMD)
#include <immintrin.h>
#define AJD_SIMD_AVX2 1
#elif defined(__ARM_NEON) && !defined(AJD_DISABLE_SIMD)
#include <arm_neon.h>
#define AJD_SIMD_NEON 1
#endif

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
};

RefineScratch& LocalScratch() {
  static thread_local RefineScratch scratch;
  return scratch;
}

// c ln c for small integer counts, which is nearly every stripped block:
// entropy passes call it once per distinct group, and std::log costs more
// than the whole tally of a tiny block. Entries are XLogX(c) verbatim, so
// substituting the table is bit-identical.
constexpr uint32_t kXLogXTableSize = 1024;

}  // namespace

double XLogXCount(uint32_t c) {
  static const std::vector<double>& table = *[] {
    auto* t = new std::vector<double>(kXLogXTableSize);
    for (uint32_t i = 0; i < kXLogXTableSize; ++i) {
      (*t)[i] = XLogX(static_cast<double>(i));
    }
    return t;
  }();
  return c < kXLogXTableSize ? table[c] : XLogX(static_cast<double>(c));
}

namespace {

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
// Counting tallies. Each fills scratch->count for the block and records the
// first occurrence of every code in scratch->touched[0..t), returning t.
// All variants tally in block-scan order, so the touched order — and with
// it every downstream output — is identical across them.
// ---------------------------------------------------------------------------

// The branchless counting tally. `hard_end` is the end of the WHOLE
// partition's row array, not the block: blocks are contiguous slices of
// it, so the gather prefetch runs against the global end and keeps the
// pipeline primed across block boundaries — the case that matters, since
// refined partitions shatter into blocks far shorter than any useful
// prefetch distance. kPrefetchCounts (the kMid variant) additionally
// prefetches the count[code] line close ahead, for cardinalities whose
// counter array no longer sits in cache; at dense cardinalities it is
// pure overhead. kKeepCodes streams every gathered code into
// s->comp[0..m), so a following scatter pass re-reads codes sequentially
// from L1 instead of re-gathering — the gather is the dominant cost of a
// refinement once the column outgrows L1.
template <bool kPrefetchCounts, bool kKeepCodes>
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
  constexpr size_t kCountAhead = 4;
  size_t t = 0;
  for (size_t i = 0; i < m; ++i) {
    if (begin + i + kGatherAhead < hard_end) {
      __builtin_prefetch(&codes[begin[i + kGatherAhead]]);
    }
    if (kPrefetchCounts && i + kCountAhead < m) {
      __builtin_prefetch(&count[codes[begin[i + kCountAhead]]]);
    }
    const uint32_t c = codes[begin[i]];
    if (kKeepCodes) comp[i] = c;
    touched[t] = c;
    t += (count[c] == 0);
    ++count[c];
  }
  return t;
}

#if defined(AJD_SIMD_AVX2)
// AVX2 tally: the codes[row] gather runs 8 lanes wide; the tally itself
// stays scalar and in lane order, so touched order (and every bit of
// downstream output) matches the scalar kernels exactly.
__attribute__((target("avx2"))) size_t SimdTally(const uint32_t* begin,
                                                 const uint32_t* end,
                                                 const uint32_t* codes,
                                                 RefineScratch* s) {
  const size_t m = static_cast<size_t>(end - begin);
  if (m > s->block_watermark) s->block_watermark = m;
  if (s->touched.size() < m) s->touched.resize(m);
  uint32_t* touched = s->touched.data();
  uint32_t* count = s->count.data();
  size_t t = 0;
  size_t i = 0;
  alignas(32) uint32_t buf[8];
  for (; i + 8 <= m; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(begin + i));
    const __m256i gathered = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(codes), idx, sizeof(uint32_t));
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), gathered);
    for (int j = 0; j < 8; ++j) {
      const uint32_t c = buf[j];
      touched[t] = c;
      t += (count[c] == 0);
      ++count[c];
    }
  }
  for (; i < m; ++i) {
    const uint32_t c = codes[begin[i]];
    touched[t] = c;
    t += (count[c] == 0);
    ++count[c];
  }
  return t;
}

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}
#elif defined(AJD_SIMD_NEON)
// AArch64 has no gather; the NEON variant loads row indexes vector-wide and
// keeps four scalar gather+tally chains in flight per iteration.
size_t SimdTally(const uint32_t* begin, const uint32_t* end,
                 const uint32_t* codes, RefineScratch* s) {
  const size_t m = static_cast<size_t>(end - begin);
  if (m > s->block_watermark) s->block_watermark = m;
  if (s->touched.size() < m) s->touched.resize(m);
  uint32_t* touched = s->touched.data();
  uint32_t* count = s->count.data();
  size_t t = 0;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    if (i + 16 < m) __builtin_prefetch(&codes[begin[i + 16]]);
    const uint32x4_t idx = vld1q_u32(begin + i);
    const uint32_t c0 = codes[vgetq_lane_u32(idx, 0)];
    const uint32_t c1 = codes[vgetq_lane_u32(idx, 1)];
    const uint32_t c2 = codes[vgetq_lane_u32(idx, 2)];
    const uint32_t c3 = codes[vgetq_lane_u32(idx, 3)];
    touched[t] = c0; t += (count[c0] == 0); ++count[c0];
    touched[t] = c1; t += (count[c1] == 0); ++count[c1];
    touched[t] = c2; t += (count[c2] == 0); ++count[c2];
    touched[t] = c3; t += (count[c3] == 0); ++count[c3];
  }
  for (; i < m; ++i) {
    const uint32_t c = codes[begin[i]];
    touched[t] = c;
    t += (count[c] == 0);
    ++count[c];
  }
  return t;
}
#endif

// The SIMD tally needs enough rows per block to amortize its vector setup
// (and on gather-slow microarchitectures, to win at all); below this the
// scalar kernels are faster. Measured on the perf_partition sweep.
constexpr ptrdiff_t kSimdMinBlock = 256;

// Picks the tally for a count-only (entropy) pass.
size_t EntropyTally(const uint32_t* begin, const uint32_t* end,
                    const uint32_t* hard_end, const uint32_t* codes,
                    RefineKernel kernel, RefineScratch* s) {
#if defined(AJD_SIMD_AVX2)
  if (CpuHasAvx2() && end - begin >= kSimdMinBlock) {
    return SimdTally(begin, end, codes, s);
  }
#elif defined(AJD_SIMD_NEON)
  if (end - begin >= kSimdMinBlock) return SimdTally(begin, end, codes, s);
#endif
  return kernel == RefineKernel::kMid
             ? Tally<true, false>(begin, end, hard_end, codes, s)
             : Tally<false, false>(begin, end, hard_end, codes, s);
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

// Count-only form: adds the tiny block's c ln c terms (first-occurrence
// order; singleton groups contribute an exact 0, so skipping them leaves
// the accumulation bit-identical to the counting path).
inline double TinyBlockEntropy(const uint32_t* begin, size_t m,
                               const uint32_t* codes) {
  uint32_t buf[kTinyBlockMax];
  for (size_t i = 0; i < m; ++i) buf[i] = codes[begin[i]];
  uint32_t done = 0;
  double sum = 0.0;
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
    if (cnt >= 2) sum += XLogXCount(cnt);
  }
  return sum;
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
  if (cardinality <= kDenseCardinalityMax) return RefineKernel::kDense;
  return RefineKernel::kMid;
}

bool SimdTallyEnabled() {
#if defined(AJD_SIMD_AVX2)
  return CpuHasAvx2();
#elif defined(AJD_SIMD_NEON)
  return true;
#else
  return false;
#endif
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
  // exactly the correspondence Partition::ExtendedBy consumes scan-free.
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
        const size_t t =
            kernel == RefineKernel::kMid
                ? Tally<true, true>(begin, end, hard_end, codes, &scratch)
                : Tally<false, true>(begin, end, hard_end, codes, &scratch);
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

namespace {

// The body of RefineEntropy, parameterized on the accumulator: `emit` is
// called once per PARTIAL — exactly the operand sequence the serial
// accumulation adds, in emission order (one c ln c term per emitted group,
// one pre-reduced term per tiny block). The serial wrapper reduces on the
// fly; the sharded wrapper records each shard's partials and reduces them
// left-to-right afterwards, which is the same reduction in the same order
// — the mechanism behind the bit-identical-at-any-thread-count contract.
// `kernel` must be concrete (kAuto resolved by the caller, from the FULL
// view's mass so shard sub-views never flip the choice).
template <typename Emit>
void RefineEntropyScan(const PartitionView& in, const Column& col,
                       RefineKernel kernel, Emit&& emit) {
  RefineScratch& scratch = LocalScratch();
  const uint32_t* codes = col.codes.data();

  if (kernel == RefineKernel::kSort) {
    ScratchGuard guard(&scratch, /*cardinality=*/0);
    for (uint32_t r = 0; r < in.num_runs; ++r) {
      const PartitionRun& run = in.runs[r];
      for (uint32_t b = 0; b < run.num_blocks; ++b) {
        const uint32_t* begin = run.rows + run.starts[b];
        const uint32_t* end = run.rows + run.starts[b + 1];
        const size_t m = static_cast<size_t>(end - begin);
        if (m <= kTinyBlockMax) {
          emit(TinyBlockEntropy(begin, m, codes));
          continue;
        }
        const size_t num_groups =
            SortBlockIntoGroups(begin, end, codes, col.cardinality, &scratch);
        // Singleton groups contribute XLogX(1) = 0 exactly, so summing only
        // the size >= 2 groups — in first-occurrence order, like the counting
        // kernels' touched list — is bit-identical to the scalar path.
        OrderGroupsByFirstRow(&scratch, num_groups);
        for (size_t g = 0; g < num_groups; ++g) {
          emit(XLogXCount(scratch.groups[2 * g + 1]));
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
          emit(TinyBlockEntropy(begin, m, codes));
          continue;
        }
        const size_t t =
            EntropyTally(begin, end, hard_end, codes, kernel, &scratch);
        if (t == 1) {
          // Unsplit block: one group of m rows.
          emit(XLogXCount(static_cast<uint32_t>(m)));
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
          // XLogX(1) == 0: sub-singletons vanish, exactly as if stripped.
          emit(XLogXCount(scratch.count[c]));
          scratch.count[c] = 0;
        }
      }
    }
  }
}

}  // namespace

double RefineEntropy(const PartitionView& in, const Column& col,
                     RefineKernel kernel, uint64_t num_rows) {
  if (kernel == RefineKernel::kAuto) {
    kernel = ChooseRefineKernel(col.cardinality, in.mass);
  }
  double sum_clogc = 0.0;
  RefineEntropyScan(in, col, kernel, [&](double v) { sum_clogc += v; });
  const double n = static_cast<double>(num_rows);
  return std::log(n) - sum_clogc / n;
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

// ---------------------------------------------------------------------------
// Sharded (intra-operation parallel) entry points. See the header contract:
// shards are contiguous block ranges of the input view, each processed by
// the unchanged serial kernel, outputs concatenated in shard (= block)
// order; entropy partials are reduced strictly left-to-right in global
// emission order, so every result is byte/bit-identical to the serial
// kernel at any shard count.
// ---------------------------------------------------------------------------

namespace {

// How many shards a view of this mass supports at this thread budget:
// never more than `threads`, never so many that a shard falls below
// kShardedRefineShardMass rows (a shard that small finishes faster than
// the fan-out costs).
uint32_t PlanShardCount(uint64_t mass, uint32_t threads) {
  if (threads <= 1) return 1;
  const uint64_t by_mass = mass / kShardedRefineShardMass;
  const uint64_t n = by_mass < threads ? by_mass : threads;
  return n < 1 ? 1 : static_cast<uint32_t>(n);
}

// Per-shard output for the materializing paths; concatenated in shard
// order after the batch drains.
struct ShardOut {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> starts;
  PartitionDelta delta;
  std::vector<double> partials;  // entropy terms, in shard emission order
};

// Concatenates per-shard refinement outputs into `out` (and `delta_out`
// when non-null) in shard order. Shard row indices are partition-global
// already (kernels copy parent rows through), so only the block-boundary
// offsets need rebasing.
void ConcatShardOutputs(const std::vector<ShardOut>& parts,
                        const PartitionBuild& out,
                        PartitionDelta* delta_out) {
  size_t total_rows = 0;
  size_t total_blocks = 0;
  size_t total_delta = 0;
  for (const ShardOut& p : parts) {
    total_rows += p.rows.size();
    if (!p.starts.empty()) total_blocks += p.starts.size() - 1;
    total_delta += p.delta.run_lengths.size();
  }
  // The row-rebase offset below accumulates in a uint32_t (rows and starts
  // are uint32-indexed throughout); make the no-wrap invariant explicit
  // rather than relying on callers never exceeding it.
  AJD_CHECK(total_rows <= UINT32_MAX);
  out.rows->clear();
  out.starts->clear();
  out.rows->resize(total_rows);
  if (total_blocks > 0) {
    out.starts->reserve(total_blocks + 1);
    out.starts->push_back(0);
  }
  if (delta_out != nullptr) {
    delta_out->run_lengths.clear();
    delta_out->parent_first_rows.clear();
    delta_out->run_lengths.reserve(total_delta);
    delta_out->parent_first_rows.reserve(total_delta);
  }
  uint32_t off = 0;
  uint32_t* dst = out.rows->data();
  for (const ShardOut& p : parts) {
    if (!p.rows.empty()) {
      std::memcpy(dst + off, p.rows.data(), p.rows.size() * sizeof(uint32_t));
    }
    for (size_t j = 1; j < p.starts.size(); ++j) {
      out.starts->push_back(p.starts[j] + off);
    }
    off += static_cast<uint32_t>(p.rows.size());
    if (delta_out != nullptr) {
      delta_out->run_lengths.insert(delta_out->run_lengths.end(),
                                    p.delta.run_lengths.begin(),
                                    p.delta.run_lengths.end());
      delta_out->parent_first_rows.insert(delta_out->parent_first_rows.end(),
                                          p.delta.parent_first_rows.begin(),
                                          p.delta.parent_first_rows.end());
    }
  }
}

// Reduces per-shard entropy partials strictly left-to-right in global
// emission order — the exact operand sequence the serial accumulation
// adds, in the exact order it adds them.
double ReduceEntropyPartials(const std::vector<ShardOut>& parts,
                             uint64_t num_rows) {
  double sum_clogc = 0.0;
  for (const ShardOut& p : parts) {
    for (const double v : p.partials) sum_clogc += v;
  }
  const double n = static_cast<double>(num_rows);
  return std::log(n) - sum_clogc / n;
}

}  // namespace

uint32_t SplitViewForRefine(const PartitionView& in, uint32_t max_shards,
                            std::vector<PartitionRun>* runs_scratch,
                            std::vector<PartitionView>* shards) {
  runs_scratch->clear();
  shards->clear();
  if (in.mass == 0 || in.num_runs == 0) return 0;
  if (max_shards < 1) max_shards = 1;
  // Pass 1: record each shard's sub-runs into runs_scratch plus per-shard
  // run counts and masses. Views are materialized only after the scratch
  // vector stops growing — growth would invalidate their run pointers.
  std::vector<uint32_t> shard_runs;
  std::vector<uint64_t> shard_mass;
  const uint64_t total = in.mass;
  uint64_t cum = 0;       // mass assigned so far, across all shards
  uint32_t cur_runs = 0;  // sub-runs in the currently-open shard
  uint64_t cur_mass = 0;  // mass in the currently-open shard
  for (uint32_t r = 0; r < in.num_runs; ++r) {
    const PartitionRun& run = in.runs[r];
    uint32_t sub_begin = 0;
    for (uint32_t b = 0; b < run.num_blocks; ++b) {
      const uint64_t block = run.starts[b + 1] - run.starts[b];
      cum += block;
      cur_mass += block;
      // Cut after this block once the open shard reaches its proportional
      // share of the total mass (cum >= total * (closed+1) / max_shards,
      // kept in integers). The last shard stays open for the remainder, so
      // every closed shard holds at least one block and the shard count
      // never exceeds max_shards.
      const uint32_t closed = static_cast<uint32_t>(shard_runs.size());
      if (closed + 1 < max_shards &&
          cum * max_shards >= total * (closed + 1)) {
        runs_scratch->push_back(
            PartitionRun{run.rows, run.starts + sub_begin, b + 1 - sub_begin});
        ++cur_runs;
        shard_runs.push_back(cur_runs);
        shard_mass.push_back(cur_mass);
        cur_runs = 0;
        cur_mass = 0;
        sub_begin = b + 1;
      }
    }
    if (sub_begin < run.num_blocks) {
      runs_scratch->push_back(PartitionRun{run.rows, run.starts + sub_begin,
                                           run.num_blocks - sub_begin});
      ++cur_runs;
    }
  }
  if (cur_runs > 0) {
    shard_runs.push_back(cur_runs);
    shard_mass.push_back(cur_mass);
  }
  size_t off = 0;
  for (size_t s = 0; s < shard_runs.size(); ++s) {
    shards->push_back(PartitionView{runs_scratch->data() + off, shard_runs[s],
                                    shard_mass[s]});
    off += shard_runs[s];
  }
  return static_cast<uint32_t>(shards->size());
}

void RefineByColumnSharded(const PartitionView& in, const Column& col,
                           RefineKernel kernel, uint32_t threads,
                           WorkerPool* pool, const PartitionBuild& out,
                           PartitionDelta* delta_out) {
  // Resolve kAuto from the FULL view's mass before sharding: a shard
  // sub-view's smaller mass could flip the kSort choice and change which
  // kernel runs — harmless for correctness (all kernels agree bitwise)
  // but it would make the sharded path exercise different code than the
  // serial one it must mirror.
  if (kernel == RefineKernel::kAuto) {
    kernel = ChooseRefineKernel(col.cardinality, in.mass);
  }
  const uint32_t want = PlanShardCount(in.mass, threads);
  if (want <= 1 || pool == nullptr) {
    RefineByColumn(in, col, kernel, out, delta_out);
    return;
  }
  std::vector<PartitionRun> runs;
  std::vector<PartitionView> shards;
  const uint32_t ns = SplitViewForRefine(in, want, &runs, &shards);
  if (ns <= 1) {
    RefineByColumn(in, col, kernel, out, delta_out);
    return;
  }
  std::vector<ShardOut> parts(ns);
  pool->Run(ns, ns, [&](size_t i) {
    RefineByColumn(shards[i], col, kernel,
                   PartitionBuild{&parts[i].rows, &parts[i].starts},
                   delta_out != nullptr ? &parts[i].delta : nullptr);
  });
  ConcatShardOutputs(parts, out, delta_out);
}

double RefineEntropySharded(const PartitionView& in, const Column& col,
                            RefineKernel kernel, uint64_t num_rows,
                            uint32_t threads, WorkerPool* pool) {
  if (kernel == RefineKernel::kAuto) {
    kernel = ChooseRefineKernel(col.cardinality, in.mass);
  }
  const uint32_t want = PlanShardCount(in.mass, threads);
  if (want <= 1 || pool == nullptr) {
    return RefineEntropy(in, col, kernel, num_rows);
  }
  std::vector<PartitionRun> runs;
  std::vector<PartitionView> shards;
  const uint32_t ns = SplitViewForRefine(in, want, &runs, &shards);
  if (ns <= 1) return RefineEntropy(in, col, kernel, num_rows);
  std::vector<ShardOut> parts(ns);
  pool->Run(ns, ns, [&](size_t i) {
    std::vector<double>& partials = parts[i].partials;
    RefineEntropyScan(shards[i], col, kernel,
                      [&partials](double v) { partials.push_back(v); });
  });
  return ReduceEntropyPartials(parts, num_rows);
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
