#include "engine/column_store.h"

#include <algorithm>

#include "util/check.h"

namespace ajd {

namespace {

/// Backing storage for MakeOwnedColumn.
struct OwnedColumnStorage {
  std::vector<uint32_t> codes;
  std::vector<uint32_t> first_row;
};

}  // namespace

Column MakeOwnedColumn(std::vector<uint32_t> codes, uint32_t cardinality,
                       std::vector<uint32_t> first_row) {
  auto storage = std::make_shared<OwnedColumnStorage>();
  storage->codes = std::move(codes);
  storage->first_row = std::move(first_row);
  Column out;
  out.codes = CodeSpan(storage->codes.data(), storage->codes.size());
  out.first_row =
      CodeSpan(storage->first_row.data(), storage->first_row.size());
  out.cardinality = cardinality;
  out.owner = std::move(storage);
  return out;
}

ColumnStore::ColumnStore(const Relation* r)
    : r_(r),
      synced_rows_(r != nullptr ? r->NumRows() : 0),
      states_(std::make_unique<ColumnState[]>(
          r != nullptr ? r->NumAttrs() : 0)) {
  AJD_CHECK(r != nullptr);
}

void ColumnStore::CatchUp() { CatchUpTo(r_->NumRows()); }

void ColumnStore::CatchUpTo(uint64_t rows) {
  const uint64_t synced = synced_rows_.load(std::memory_order_relaxed);
  const uint64_t now = r_->NumRows();
  AJD_CHECK_MSG(now >= synced,
                "relation shrank from %llu to %llu rows under its "
                "ColumnStore; relations are append-only",
                static_cast<unsigned long long>(synced),
                static_cast<unsigned long long>(now));
  if (rows <= synced) return;
  AJD_CHECK(rows <= now);
  synced_rows_.store(rows, std::memory_order_release);
}

// Densifies rows [st.built_rows, target) into st.buffers and publishes a
// fresh frozen view: remaps each raw code to its dense first-occurrence
// code, reusing (and growing) the remap that survives from earlier epochs.
// First-occurrence assignment makes the result bit-identical to densifying
// the full prefix cold, whichever remap representation — or sequence of
// representations — was used along the way.
//
// RCU discipline: rows [0, from) of the buffers are aliased by published
// views and never touched. Capacity for the worst case is ensured BEFORE
// any in-place write; if either vector would have to reallocate, the whole
// storage moves to a fresh ColumnBuffers (old views keep the old one alive
// through their owner pointer).
void ColumnStore::ExtendColumnLocked(ColumnState& st, uint32_t pos,
                                     uint64_t target) const {
  const uint64_t from = st.built_rows.load(std::memory_order_relaxed);
  const RowsSnapshot rows = r_->Snapshot();
  AJD_CHECK(rows.num_rows >= target);
  if (st.buffers == nullptr) st.buffers = std::make_shared<ColumnBuffers>();

  // Worst case every appended row introduces a new code.
  const uint64_t fr_need = st.cardinality + (target - from);
  if (target > st.buffers->codes.capacity() ||
      fr_need > st.buffers->first_row.capacity()) {
    auto grown = std::make_shared<ColumnBuffers>();
    grown->codes.reserve(
        std::max<uint64_t>(2 * st.buffers->codes.capacity(), target));
    grown->codes.assign(st.buffers->codes.begin(), st.buffers->codes.end());
    grown->first_row.reserve(
        std::max<uint64_t>(2 * st.buffers->first_row.capacity(), fr_need));
    grown->first_row.assign(st.buffers->first_row.begin(),
                            st.buffers->first_row.end());
    st.buffers = std::move(grown);
  }
  std::vector<uint32_t>& codes = st.buffers->codes;
  std::vector<uint32_t>& first_row = st.buffers->first_row;
  codes.resize(target);

  if (!st.ever_built) {
    // Pick the initial representation from the first chunk's raw range: a
    // direct-address table while raw codes are comparable to the row
    // count, a hash map otherwise (raw codes are arbitrary uint32 values
    // when relations are built from FromRows without dictionaries).
    uint32_t max_raw = 0;
    for (uint64_t i = from; i < target; ++i) {
      max_raw = std::max(max_raw, rows.At(i, pos));
    }
    const uint64_t direct_limit = 4 * (target - from) + 1024;
    st.use_direct = static_cast<uint64_t>(max_raw) < direct_limit;
    if (st.use_direct) {
      st.direct_remap.assign(static_cast<size_t>(max_raw) + 1, UINT32_MAX);
    } else {
      st.hash_remap.reserve(static_cast<size_t>(target - from));
    }
    st.ever_built = true;
  }

  for (uint64_t i = from; i < target; ++i) {
    const uint32_t raw = rows.At(i, pos);
    if (st.use_direct && static_cast<size_t>(raw) >= st.direct_remap.size()) {
      // The appended data outgrew the table. Keep growing while the range
      // stays comparable to the (current) row count; otherwise migrate the
      // surviving entries to the hash map once. Either way the dense codes
      // already assigned are untouched.
      if (static_cast<uint64_t>(raw) < 4 * target + 1024) {
        st.direct_remap.resize(static_cast<size_t>(raw) + 1, UINT32_MAX);
      } else {
        st.hash_remap.reserve(st.direct_remap.size());
        for (size_t v = 0; v < st.direct_remap.size(); ++v) {
          if (st.direct_remap[v] != UINT32_MAX) {
            st.hash_remap.emplace(static_cast<uint32_t>(v),
                                  st.direct_remap[v]);
          }
        }
        std::vector<uint32_t>().swap(st.direct_remap);
        st.use_direct = false;
      }
    }
    uint32_t dense;
    if (st.use_direct) {
      uint32_t& slot = st.direct_remap[raw];
      if (slot == UINT32_MAX) {
        slot = st.cardinality++;
        first_row.push_back(static_cast<uint32_t>(i));
      }
      dense = slot;
    } else {
      auto [it, inserted] = st.hash_remap.emplace(raw, st.cardinality);
      if (inserted) {
        ++st.cardinality;
        first_row.push_back(static_cast<uint32_t>(i));
      }
      dense = it->second;
    }
    codes[i] = dense;
  }

  auto view = std::make_shared<Column>();
  view->codes = CodeSpan(codes.data(), target);
  view->cardinality = st.cardinality;
  view->first_row = CodeSpan(first_row.data(), st.cardinality);
  view->owner = st.buffers;
  std::atomic_store_explicit(&st.view,
                             std::shared_ptr<const Column>(std::move(view)),
                             std::memory_order_release);
  st.built_rows.store(target, std::memory_order_release);
}

namespace {

/// Derives the view of the first `rows` rows from a longer frozen view:
/// the codes are a plain prefix, and because first_row is strictly
/// ascending, the prefix's cardinality is the number of first occurrences
/// below `rows`. Bit-identical to a cold densification of the prefix.
std::shared_ptr<const Column> DerivePrefix(
    const std::shared_ptr<const Column>& full, uint64_t rows) {
  auto out = std::make_shared<Column>();
  const uint32_t* fr = full->first_row.begin();
  const uint32_t card = static_cast<uint32_t>(
      std::lower_bound(fr, full->first_row.end(),
                       static_cast<uint32_t>(rows)) -
      fr);
  out->codes = CodeSpan(full->codes.data(), rows);
  out->first_row = CodeSpan(fr, card);
  out->cardinality = card;
  out->owner = full->owner;
  return out;
}

}  // namespace

std::shared_ptr<const Column> ColumnStore::ViewAt(uint32_t pos,
                                                  uint64_t rows) const {
  AJD_CHECK(pos < r_->NumAttrs());
  ColumnState& st = states_[pos];
  std::shared_ptr<const Column> v =
      std::atomic_load_explicit(&st.view, std::memory_order_acquire);
  if (v != nullptr && v->codes.size() >= rows) {
    if (v->codes.size() == rows) return v;
    std::shared_ptr<const Column> cached =
        std::atomic_load_explicit(&st.pinned_view, std::memory_order_acquire);
    if (cached != nullptr && cached->codes.size() == rows) return cached;
    std::shared_ptr<const Column> derived = DerivePrefix(v, rows);
    std::atomic_store_explicit(&st.pinned_view, derived,
                               std::memory_order_release);
    return derived;
  }
  std::lock_guard<std::mutex> lock(st.mu);
  if (st.built_rows.load(std::memory_order_relaxed) < rows) {
    ExtendColumnLocked(st, pos, rows);
  }
  v = std::atomic_load_explicit(&st.view, std::memory_order_relaxed);
  if (v->codes.size() == rows) return v;
  return DerivePrefix(v, rows);
}

Column ColumnStore::column(uint32_t pos) const {
  return *ViewAt(pos, NumRows());
}

Column ColumnStore::ColumnAt(uint32_t pos, uint64_t rows) const {
  return *ViewAt(pos, rows);
}

}  // namespace ajd
