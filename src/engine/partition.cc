#include "engine/partition.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "engine/block_histogram.h"
#include "engine/refine_kernels.h"
#include "util/math.h"

namespace ajd {

namespace {

// Scratch for the partition's own kernel calls: each view is consumed
// before the call that built it returns, and these methods never nest on
// one thread, so a single thread-local instance suffices.
thread_local PartitionViewScratch g_view_scratch;

// Tail-slack policy (see partition.h): a block that grows, or is freshly
// emitted by an in-place refinement, reserves cap = size + size/2 + 2 —
// geometric, so a steadily-growing block relocates O(log growth) times —
// clamped to keep the uint32 offset arithmetic safe.
uint32_t GrowCap(uint64_t size) {
  uint64_t cap = size + size / 2 + 2;
  if (cap > UINT32_MAX - 1) cap = UINT32_MAX - 1;
  return static_cast<uint32_t>(cap);
}

}  // namespace

PartitionView Partition::View(PartitionViewScratch* scratch) const {
  PartitionView v;
  if (!chunked_) {
    if (starts_.empty()) return v;
    scratch->runs.resize(1);
    scratch->runs[0] =
        PartitionRun{rows_.data(), starts_.data(),
                     static_cast<uint32_t>(starts_.size() - 1)};
    v.runs = scratch->runs.data();
    v.num_runs = 1;
    v.mass = rows_.size();
    return v;
  }
  const uint32_t nb = static_cast<uint32_t>(blocks_.size());
  if (nb == 0) return v;
  // A run breaks wherever the next block's rows do not start exactly at
  // the previous block's live end — slack, a relocation strand, or a chunk
  // boundary all break contiguity. Pass 1 counts runs so the scratch is
  // sized BEFORE any pointer into it is taken.
  auto breaks_run = [&](uint32_t b) {
    const BlockRef& prev = blocks_[b - 1];
    const BlockRef& cur = blocks_[b];
    return cur.chunk != prev.chunk ||
           cur.offset != prev.offset + prev.size;
  };
  uint32_t num_runs = 1;
  for (uint32_t b = 1; b < nb; ++b) {
    if (breaks_run(b)) ++num_runs;
  }
  if (scratch->runs.size() < num_runs) scratch->runs.resize(num_runs);
  if (scratch->starts.size() < nb + num_runs) {
    scratch->starts.resize(nb + num_runs);
  }
  PartitionRun* runs = scratch->runs.data();
  uint32_t* starts = scratch->starts.data();
  uint32_t run = 0;
  uint32_t run_first = 0;
  uint32_t start_base = 0;
  auto close_run = [&](uint32_t first, uint32_t past) {
    const BlockRef& head = blocks_[first];
    uint32_t* s = starts + start_base;
    uint32_t acc = 0;
    s[0] = 0;
    for (uint32_t b = first; b < past; ++b) {
      acc += blocks_[b].size;
      s[b - first + 1] = acc;
    }
    runs[run++] = PartitionRun{
        chunks_[head.chunk].data.data() + head.offset, s, past - first};
    start_base += past - first + 1;
  };
  for (uint32_t b = 1; b < nb; ++b) {
    if (breaks_run(b)) {
      close_run(run_first, b);
      run_first = b;
    }
  }
  close_run(run_first, nb);
  v.runs = runs;
  v.num_runs = num_runs;
  v.mass = mass_;
  return v;
}

void Partition::AdoptChunked() {
  AJD_CHECK(!chunked_);
  const uint32_t nb = NumBlocks();
  mass_ = rows_.size();
  blocks_.clear();
  blocks_.reserve(nb);
  chunks_.clear();
  // Every block is laid out with its full tail slack up front. Aliasing the
  // flat array in place (cap == size) would be free here, but then the
  // first uniform-stream batch — which touches every block — would relocate
  // ALL of them, stranding the entire old array at once; paying one
  // organized O(mass) copy now means subsequent appends land in slack no
  // matter which blocks a batch touches.
  for (uint32_t b = 0; b < nb; ++b) {
    const uint32_t size = starts_[b + 1] - starts_[b];
    BlockRef r = AllocRegion(GrowCap(size));
    r.size = size;
    std::copy(rows_.begin() + starts_[b], rows_.begin() + starts_[b + 1],
              MutableBlockRows(r));
    blocks_.push_back(r);
  }
  std::vector<uint32_t>().swap(rows_);
  std::vector<uint32_t>().swap(starts_);
  chunked_ = true;
}

Partition::BlockRef Partition::AllocRegion(uint32_t cap) {
  if (chunks_.empty() ||
      chunks_.back().data.size() - chunks_.back().used < cap) {
    // Fresh chunk: geometric in the partition's mass, clamped, never
    // smaller than the request.
    constexpr uint64_t kMinChunkWords = uint64_t{1} << 12;
    constexpr uint64_t kMaxChunkWords = uint64_t{1} << 20;
    uint64_t words = mass_ / 2;
    if (words < kMinChunkWords) words = kMinChunkWords;
    if (words > kMaxChunkWords) words = kMaxChunkWords;
    if (words < cap) words = cap;
    Chunk c;
    c.data.resize(words);
    chunks_.push_back(std::move(c));
  }
  Chunk& ch = chunks_.back();
  BlockRef r;
  r.chunk = static_cast<uint32_t>(chunks_.size() - 1);
  r.offset = ch.used;
  r.size = 0;
  r.cap = cap;
  ch.used += cap;
  return r;
}

void Partition::FlattenStripped(std::vector<uint32_t>* rows,
                                std::vector<uint32_t>* offsets) const {
  rows->clear();
  offsets->clear();
  const uint32_t nb = NumBlocks();
  if (nb == 0) return;
  if (!chunked_) {
    *rows = rows_;
    *offsets = starts_;
    return;
  }
  rows->reserve(mass_);
  offsets->reserve(nb + 1);
  offsets->push_back(0);
  for (uint32_t b = 0; b < nb; ++b) {
    rows->insert(rows->end(), BlockBegin(b), BlockEnd(b));
    offsets->push_back(static_cast<uint32_t>(rows->size()));
  }
}

void Partition::FlattenInPlace() {
  if (!chunked_) return;
  std::vector<uint32_t> rows;
  std::vector<uint32_t> offsets;
  FlattenStripped(&rows, &offsets);
  rows_ = std::move(rows);
  starts_ = std::move(offsets);
  chunks_.clear();
  chunks_.shrink_to_fit();
  blocks_.clear();
  blocks_.shrink_to_fit();
  mass_ = 0;
  chunked_ = false;
}

void Partition::MaybeReclaim() {
  if (!chunked_) return;
  uint64_t held = 0;
  for (const Chunk& c : chunks_) held += c.data.size();
  // A freshly adopted layout legitimately holds ~1.5x its mass plus two
  // words of slack per block (GrowCap) plus one partially-filled chunk
  // tail; only once relocation strands and re-refined runs push past twice
  // the live mass BEYOND that baseline is compaction worth an O(mass) copy
  // back to flat. The grace chunk keeps small partitions from thrashing
  // between layouts. A full relocation wave (every block outgrowing its
  // slack at once) lands just past this threshold, so the wave's own copy
  // and the flatten share one cache-hot pass through the data.
  const uint64_t baseline =
      3 * mass_ + 4 * static_cast<uint64_t>(blocks_.size());
  if (held > baseline + (uint64_t{1} << 12)) FlattenInPlace();
}

Partition Partition::Trivial(uint64_t num_rows) {
  AJD_CHECK(num_rows < UINT32_MAX);
  Partition out;
  if (num_rows < 2) return out;  // a lone row is a singleton: stripped away
  out.rows_.resize(num_rows);
  for (uint64_t i = 0; i < num_rows; ++i) {
    out.rows_[i] = static_cast<uint32_t>(i);
  }
  out.starts_ = {0, static_cast<uint32_t>(num_rows)};
  return out;
}

Partition Partition::OfColumn(const Column& col) {
  const size_t n = col.codes.size();
  AJD_CHECK(n < UINT32_MAX);
  Partition out;
  if (n == 0) return out;
  if (col.cardinality >= n) {
    // Near-key column: the counting construction below would allocate two
    // cardinality-sized vectors (count + offset) to strip almost every
    // row. The sort path's scratch is row-sized and its output — blocks in
    // ascending code order, rows ascending — is identical.
    SortPartitionOfColumn(col, PartitionBuild{&out.rows_, &out.starts_});
    return out;
  }
  std::vector<uint32_t> count(col.cardinality, 0);
  for (uint32_t c : col.codes) ++count[c];
  std::vector<uint32_t> offset(col.cardinality, UINT32_MAX);
  uint32_t total = 0;
  for (uint32_t c = 0; c < col.cardinality; ++c) {
    if (count[c] >= 2) {
      offset[c] = total;
      total += count[c];
      out.starts_.push_back(total);  // ends; start sentinel inserted below
    }
  }
  if (total == 0) {
    out.starts_.clear();
    return out;
  }
  out.starts_.insert(out.starts_.begin(), 0);
  out.rows_.resize(total);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t c = col.codes[i];
    if (offset[c] != UINT32_MAX) out.rows_[offset[c]++] = i;
  }
  return out;
}

Partition Partition::RefinedBy(const Column& col, RefineKernel kernel,
                               PartitionDelta* delta_out) const {
  Partition out;
  // The kernel stages into thread-local scratch and copies out at exact
  // size, so the result carries no dead capacity into the engine's cache.
  RefineByColumn(View(&g_view_scratch), col, kernel,
                 PartitionBuild{&out.rows_, &out.starts_}, delta_out);
  return out;
}

double Partition::RefinedEntropy(const Column& col, uint64_t num_rows,
                                 RefineKernel kernel) const {
  if (num_rows == 0) return 0.0;
  return RefineEntropy(View(&g_view_scratch), col, kernel, num_rows);
}

void Partition::ExtendOfColumnInPlace(const Column& col, uint64_t old_rows) {
  const uint64_t n = col.codes.size();
  AJD_CHECK(n >= old_rows && n < UINT32_MAX);
  if (n == old_rows) return;
  AJD_CHECK_MSG(col.first_row.size() == col.cardinality,
                "ExtendOfColumnInPlace needs a store-densified column "
                "(first_row present)");

  // Tally the appended rows per code, collecting the touched codes, then
  // bucket them by code in ascending row order. The code-indexed arrays
  // are thread-local and grow-only (a fresh O(cardinality) zero-fill per
  // root partition per catch-up would bite on near-key columns); the
  // touched-entry resets below keep them clean for the next call.
  static thread_local std::vector<uint32_t> count_new;
  static thread_local std::vector<uint32_t> cursor;
  if (count_new.size() < col.cardinality) {
    count_new.resize(col.cardinality, 0);
    cursor.resize(col.cardinality);
  }
  std::vector<uint32_t> new_codes;
  for (uint64_t i = old_rows; i < n; ++i) {
    const uint32_t c = col.codes[i];
    if (count_new[c]++ == 0) new_codes.push_back(c);
  }
  std::sort(new_codes.begin(), new_codes.end());
  uint32_t acc = 0;
  std::vector<uint32_t> bucket_start(new_codes.size() + 1, 0);
  for (size_t j = 0; j < new_codes.size(); ++j) {
    bucket_start[j] = acc;
    cursor[new_codes[j]] = acc;
    acc += count_new[new_codes[j]];
  }
  bucket_start[new_codes.size()] = acc;
  std::vector<uint32_t> delta_rows(acc);
  for (uint64_t i = old_rows; i < n; ++i) {
    delta_rows[cursor[col.codes[i]]++] = static_cast<uint32_t>(i);
  }
  for (uint32_t c : new_codes) count_new[c] = 0;  // scratch stays clean

  // Dense codes are assigned in first-occurrence order, so first_row is
  // strictly increasing: codes seen before the append are exactly those
  // below old_card.
  const uint32_t old_card = static_cast<uint32_t>(
      std::lower_bound(col.first_row.begin(), col.first_row.end(),
                       static_cast<uint32_t>(old_rows)) -
      col.first_row.begin());

  if (!chunked_) AdoptChunked();
  const uint32_t old_nb = NumBlocks();
  // Merge the touched codes into the old blocks in ascending code order —
  // OfColumn's emission order — but untouched old blocks are never copied:
  // grown blocks append into their slack through their headers, and the
  // header list is only rebuilt (20-byte header copies, O(blocks)) once the
  // first NEW block has to be spliced in.
  static thread_local std::vector<BlockRef> staged;
  bool structural = false;
  uint32_t pb = 0;  // old-block cursor (ascending code order)
  // Header-memoized block codes (see BlockRef::code): the first walk after
  // adoption gathers codes[first row] once per probed block; later walks
  // read the header word.
  auto block_code = [&](uint32_t b) {
    uint32_t c = blocks_[b].code;
    if (c == kNoCode) {
      c = col.codes[*BlockBegin(b)];
      blocks_[b].code = c;
    }
    return c;
  };
  // First block in [lo, old_nb) whose code is >= c: blocks sit in
  // ascending code order, so gallop then binary-search — O(log gap) header
  // probes per touched code instead of a linear walk over every block.
  auto lower_block = [&](uint32_t lo, uint32_t c) {
    if (lo >= old_nb || block_code(lo) >= c) return lo;
    uint32_t step = 1;
    uint32_t prev = lo;  // invariant: block_code(prev) < c
    while (lo + step < old_nb && block_code(lo + step) < c) {
      prev = lo + step;
      step <<= 1;
    }
    uint32_t a = prev + 1;
    uint32_t b2 = lo + step < old_nb ? lo + step : old_nb;
    while (a < b2) {
      const uint32_t mid = a + (b2 - a) / 2;
      if (block_code(mid) < c) {
        a = mid + 1;
      } else {
        b2 = mid;
      }
    }
    return a;
  };
  for (size_t nc = 0; nc < new_codes.size(); ++nc) {
    const uint32_t c = new_codes[nc];
    const uint32_t added = bucket_start[nc + 1] - bucket_start[nc];
    const uint32_t pos = lower_block(pb, c);
    if (pos > pb) {
      if (structural) {
        staged.insert(staged.end(), blocks_.begin() + pb,
                      blocks_.begin() + pos);
      }
      pb = pos;
    }
    if (pb < old_nb && block_code(pb) == c) {
      // Grown old block: appended rows (already ascending) at its tail.
      BlockRef& r = blocks_[pb];
      if (r.size + added > r.cap) {
        const uint32_t* src = BlockBegin(pb);
        BlockRef moved = AllocRegion(GrowCap(uint64_t{r.size} + added));
        moved.size = r.size;
        moved.code = c;
        std::copy(src, src + r.size, MutableBlockRows(moved));
        r = moved;
      }
      std::copy(delta_rows.begin() + bucket_start[nc],
                delta_rows.begin() + bucket_start[nc + 1],
                MutableBlockRows(r) + r.size);
      r.size += added;
      mass_ += added;
      if (structural) staged.push_back(r);
      ++pb;
      continue;
    }
    if (c >= old_card && added < 2) continue;  // still a singleton
    // Promoted singleton (its lone pre-append row is the code's first
    // occurrence) or brand-new multi-row code: splice a fresh block in.
    if (!structural) {
      structural = true;
      staged.assign(blocks_.begin(), blocks_.begin() + pb);
    }
    const uint32_t promoted = c < old_card ? 1 : 0;
    BlockRef r = AllocRegion(GrowCap(uint64_t{added} + promoted));
    r.size = added + promoted;
    r.code = c;
    uint32_t* w = MutableBlockRows(r);
    if (promoted != 0) *w++ = col.first_row[c];
    std::copy(delta_rows.begin() + bucket_start[nc],
              delta_rows.begin() + bucket_start[nc + 1], w);
    staged.push_back(r);
    mass_ += r.size;
  }
  if (structural) {
    staged.insert(staged.end(), blocks_.begin() + pb, blocks_.end());
    blocks_.assign(staged.begin(), staged.end());
  }
  MaybeReclaim();
}

void Partition::ExtendInPlaceBy(const Partition& parent_new,
                                const Column& col, uint64_t old_rows,
                                const PartitionDelta& delta,
                                PartitionDelta* delta_out) {
  AJD_CHECK(delta_out != &delta);
  const uint32_t nb = parent_new.NumBlocks();
  if (delta_out != nullptr) {
    delta_out->run_lengths.clear();
    delta_out->run_lengths.reserve(nb);
    delta_out->parent_first_rows.clear();
    delta_out->parent_first_rows.reserve(nb);
  }
  if (nb == 0) {
    // Refinement of an all-singleton parent is empty; canonical empty form
    // is flat.
    rows_.clear();
    starts_.clear();
    chunks_.clear();
    blocks_.clear();
    mass_ = 0;
    chunked_ = false;
    return;
  }
  if (!chunked_) AdoptChunked();

  // Parent-block correspondence: the delta's run lengths and parent first
  // rows make every decision an array read. An empty delta is the
  // correspondence of an old parent with no stripped blocks (every new
  // parent block is then brand new).
  const uint32_t opn = static_cast<uint32_t>(delta.run_lengths.size());
  AJD_CHECK(delta.parent_first_rows.size() == opn);

  // Scratch for the grown-block path: code -> run slot, per-code tallies
  // and bucket offsets. The code-indexed arrays are thread-local and
  // grow-only — a fresh O(cardinality) allocation + zero-fill per cached
  // partition per catch-up would dominate on near-key columns — and they
  // stay clean by discipline: every user resets exactly the entries it
  // touched (code_slot back to UINT32_MAX, cnt back to 0), so only newly
  // grown capacity ever needs filling.
  static thread_local std::vector<uint32_t> code_slot;
  static thread_local std::vector<uint32_t> cnt;
  static thread_local std::vector<uint32_t> off;
  if (code_slot.size() < col.cardinality) {
    code_slot.resize(col.cardinality, UINT32_MAX);
    cnt.resize(col.cardinality, 0);
    off.resize(col.cardinality);
  }
  // Header staging: the header list only needs rebuilding when a parent
  // block's sub-block COUNT or placement changes (a brand-new block, or a
  // run re-refined into fresh regions). Until that first structural
  // change, grown blocks are patched through their headers in place and
  // nothing is copied; after it, untouched runs bulk-copy their 20-byte
  // headers — O(blocks), never O(mass).
  static thread_local std::vector<BlockRef> staged;
  bool structural = false;
  std::vector<uint32_t> grouped_tail;
  std::vector<uint32_t> touched;
  std::vector<uint32_t> tail_touched;
  std::vector<uint32_t> block_codes;
  std::vector<uint32_t*> write_cursor;
  const uint32_t* codes = col.codes.data();
  const uint32_t* codes_end = codes + col.codes.size();

  const uint32_t num_child = NumBlocks();
  uint32_t op = 0;  // old-parent block cursor
  uint32_t oc = 0;  // old-child block cursor

  auto structuralize = [&](uint32_t upto) {
    if (structural) return;
    structural = true;
    staged.assign(blocks_.begin(), blocks_.begin() + upto);
  };
  // Refines one parent block from scratch into fresh chunk regions —
  // sub-blocks in first-occurrence order of the code, rows ascending,
  // singletons dropped (the kernels' emission exactly) — appending the new
  // headers to the staging list. Returns the number of blocks emitted.
  // Like the kernels, the tally gathers with a software-prefetch lookahead
  // and keeps the gathered codes for the scatter pass: these blocks' rows
  // are scattered across the whole codes array, and a serial re-gather
  // would leave the pass memory-latency bound.
  constexpr size_t kGatherAhead = 16;
  auto refine_block = [&](const uint32_t* bb, const uint32_t* be) {
    const size_t m = static_cast<size_t>(be - bb);
    if (block_codes.size() < m) block_codes.resize(m);
    touched.clear();
    for (size_t i = 0; i < m; ++i) {
      if (i + kGatherAhead < m &&
          codes + bb[i + kGatherAhead] < codes_end) {
        __builtin_prefetch(&codes[bb[i + kGatherAhead]]);
      }
      const uint32_t c = codes[bb[i]];
      block_codes[i] = c;
      if (cnt[c]++ == 0) touched.push_back(c);
    }
    uint32_t emitted = 0;
    write_cursor.clear();
    for (uint32_t c : touched) {
      if (cnt[c] >= 2) {
        BlockRef r = AllocRegion(GrowCap(cnt[c]));
        r.size = cnt[c];
        r.code = c;
        off[c] = static_cast<uint32_t>(write_cursor.size());
        write_cursor.push_back(MutableBlockRows(r));
        staged.push_back(r);
        mass_ += cnt[c];
        ++emitted;
      } else {
        off[c] = UINT32_MAX;
      }
    }
    for (size_t i = 0; i < m; ++i) {
      const uint32_t c = block_codes[i];
      if (off[c] != UINT32_MAX) *write_cursor[off[c]]++ = bb[i];
    }
    for (uint32_t c : touched) cnt[c] = 0;
    return emitted;
  };
  auto emit_delta = [&](uint32_t first_row, uint32_t emitted) {
    if (delta_out != nullptr) {
      delta_out->parent_first_rows.push_back(first_row);
      delta_out->run_lengths.push_back(emitted);
    }
  };

  for (uint32_t b = 0; b < nb; ++b) {
    const uint32_t* begin = parent_new.BlockBegin(b);
    const uint32_t* end = parent_new.BlockEnd(b);
    // Old blocks reappear in the extended parent in their old relative
    // order with their first row unchanged (appends only ever add rows at
    // a block's tail), so a first-row match identifies the correspondence.
    const uint32_t old_first =
        op >= opn ? UINT32_MAX : delta.parent_first_rows[op];
    const bool brand_new = old_first != begin[0];
    if (brand_new) {
      // Promoted parent-level singleton plus the appended rows that joined
      // it: no old child state exists; refine it from scratch.
      structuralize(oc);
      emit_delta(begin[0], refine_block(begin, end));
      continue;
    }
    const uint32_t run_begin = oc;
    const uint32_t run_end = oc + delta.run_lengths[op];
    const uint32_t runs = run_end - run_begin;
    oc = run_end;
    // Appended rows sort to the tail of a block, so the last row tells
    // whether a matched block grew. An ungrown block is row-for-row
    // identical to its old self, and its sub-blocks are exactly the old
    // child's run.
    const bool grew = end[-1] >= old_rows;
    if (!grew) {
      // Row-for-row identical to its old self: its headers move only if a
      // structural change upstream is rebuilding the header list.
      if (structural) {
        staged.insert(staged.end(), blocks_.begin() + run_begin,
                      blocks_.begin() + run_end);
      }
      emit_delta(begin[0], runs);
      ++op;
      continue;
    }
    // Grown block: the delta fast path. When every appended row's code
    // already owns a sub-block, the cold first-occurrence emission is the
    // old run order with each sub-block's new rows at its tail — append
    // into the block's slack, relocating it (once, with fresh slack) only
    // when the slack runs out. This is the path that makes extension
    // O(delta) regardless of which blocks the appended rows land in.
    //
    // Tally the tail by code FIRST, then walk the run's sub-block first
    // rows once: a code owns at most one sub-block within a run, so the
    // single pass both finds every append target and decides fastness
    // (every tail code matched a sub-block) — no slot fill + reset pair
    // over all sub-blocks, and sub-blocks nothing landed in are touched
    // exactly once.
    const uint32_t* tail =
        std::lower_bound(begin, end, static_cast<uint32_t>(old_rows));
    const size_t tail_len = static_cast<size_t>(end - tail);
    // The tail's code gather is kept (block_codes) so the bucketing pass
    // below never re-gathers; the run walk pipelines its two-level
    // indirection (header -> first row -> code) with the same lookahead
    // the kernels use, or both loops sit memory-latency bound.
    if (block_codes.size() < tail_len) block_codes.resize(tail_len);
    tail_touched.clear();
    for (size_t i = 0; i < tail_len; ++i) {
      if (i + kGatherAhead < tail_len &&
          codes + tail[i + kGatherAhead] < codes_end) {
        __builtin_prefetch(&codes[tail[i + kGatherAhead]]);
      }
      const uint32_t c = codes[tail[i]];
      block_codes[i] = c;
      if (cnt[c]++ == 0) tail_touched.push_back(c);
    }
    size_t matched = 0;
    if (runs > 0 && blocks_[run_begin].code != kNoCode) {
      // Steady state: block codes sit memoized in the headers (runs are
      // stamped all-or-none — by the cold-fill pass below, by refine_block,
      // or left wholly unstamped by adoption), so the walk is a sequential
      // header scan with zero gathers.
      for (uint32_t j = 0; j < runs; ++j) {
        const uint32_t c = blocks_[run_begin + j].code;
        if (cnt[c] > 0) {
          code_slot[c] = j;
          ++matched;
        }
      }
    } else {
      // First walk since adoption: gather each sub-block's code through the
      // header indirection once — pipelined like the kernels' gathers — and
      // stamp it into the header for every later batch.
      for (uint32_t j = 0; j < runs; ++j) {
        if (j + 2 * kGatherAhead < runs) {
          const BlockRef& pre = blocks_[run_begin + j + 2 * kGatherAhead];
          __builtin_prefetch(chunks_[pre.chunk].data.data() + pre.offset);
        }
        if (j + kGatherAhead < runs) {
          __builtin_prefetch(
              &codes[*BlockBegin(run_begin + j + kGatherAhead)]);
        }
        const uint32_t c = codes[*BlockBegin(run_begin + j)];
        blocks_[run_begin + j].code = c;
        if (cnt[c] > 0) {
          code_slot[c] = j;
          ++matched;
        }
      }
    }
    if (matched == tail_touched.size()) {
      uint32_t acc = 0;
      for (uint32_t c : tail_touched) {
        off[c] = acc;
        acc += cnt[c];
      }
      if (grouped_tail.size() < tail_len) grouped_tail.resize(tail_len);
      for (size_t i = 0; i < tail_len; ++i) {
        grouped_tail[off[block_codes[i]]++] = tail[i];  // ends one past bucket
      }
      for (uint32_t c : tail_touched) {
        const uint32_t add = cnt[c];
        BlockRef& r = blocks_[run_begin + code_slot[c]];
        if (r.size + add > r.cap) {
          // Outgrew the slack: relocate once. The old region becomes a
          // strand, reclaimed by MaybeReclaim below. (chunks_ may
          // reallocate its Chunk objects, but each chunk's heap buffer
          // — where the rows live — never moves.)
          const uint32_t* src =
              chunks_[r.chunk].data.data() + r.offset;
          BlockRef moved = AllocRegion(GrowCap(uint64_t{r.size} + add));
          moved.size = r.size;
          moved.code = r.code;
          std::copy(src, src + r.size, MutableBlockRows(moved));
          r = moved;
        }
        std::copy(grouped_tail.begin() + off[c] - add,
                  grouped_tail.begin() + off[c],
                  MutableBlockRows(r) + r.size);
        r.size += add;
        mass_ += add;
        cnt[c] = 0;
        code_slot[c] = UINT32_MAX;
      }
      if (structural) {
        staged.insert(staged.end(), blocks_.begin() + run_begin,
                      blocks_.begin() + run_end);
      }
      emit_delta(begin[0], runs);
    } else {
      // A code without an old sub-block interleaves by first occurrence:
      // re-refine the whole parent block into fresh regions (the old run's
      // regions become strands). Fades once the column's value set
      // stabilizes. Scratch resets first — refine_block retallies cnt and
      // expects it clean.
      for (uint32_t c : tail_touched) {
        cnt[c] = 0;
        code_slot[c] = UINT32_MAX;
      }
      structuralize(run_begin);
      uint64_t old_run_mass = 0;
      for (uint32_t j = run_begin; j < run_end; ++j) {
        old_run_mass += blocks_[j].size;
      }
      mass_ -= old_run_mass;
      emit_delta(begin[0], refine_block(begin, end));
    }
    ++op;
  }
  AJD_CHECK(op == opn && oc == num_child);
  if (structural) blocks_.assign(staged.begin(), staged.end());
  MaybeReclaim();
}

double Partition::EntropyNats(uint64_t num_rows) const {
  if (num_rows == 0) return 0.0;
  static thread_local BlockSizeHistogram sizes;
  sizes.Clear();
  for (uint32_t b = 0; b < NumBlocks(); ++b) sizes.Add(BlockSize(b));
  return sizes.EntropyNats(num_rows);
}

}  // namespace ajd
